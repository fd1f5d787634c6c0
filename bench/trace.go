package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Names are
// "layer.Func"; spans the harness itself owns are "bench.*". op groups
// the spans of one frame, epoch or round; parent is the index of the
// enclosing span, -1 for the root of an op.
type span struct {
	name       string
	op, parent int32
	start, end int64 // ns since the tracer was made
}

// tracer records spans into a slice allocated once, so tracing adds no
// allocation to the loops it observes. A nil tracer is tracing off:
// every method is then a pointer test.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int32
	op      int32
	dropped int
	// scales[op-1] is the speed factor (calibrate.go) measured around
	// op; every duration read from the trace is multiplied by it.
	scales []float64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), stack: make([]int32, 0, 16), scales: make([]float64, 0, capacity)}
}

// nextOp starts a new op; the next root span and its children carry it.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
		t.scales = append(t.scales, 1)
	}
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// scaleFrom sets the speed factors of the ops recorded since span
// first: the k-th op rooted at a span called timedRoot gets timed[k],
// every other op (warm-up, drain) gets rest.
func (t *tracer) scaleFrom(first int, timedRoot string, timed []float64, rest float64) {
	if t == nil {
		return
	}
	k := 0
	for _, s := range t.spans[first:] {
		if s.parent >= 0 {
			continue
		}
		t.scales[s.op-1] = rest
		if s.name == timedRoot && k < len(timed) {
			t.scales[s.op-1] = timed[k]
			k++
		}
	}
}

// ms is a span's duration at the reference speed.
func (t *tracer) ms(s span) float64 {
	return float64(s.end-s.start) / 1e6 * t.scales[s.op-1]
}

// begin opens a span under the innermost open one and returns its
// handle for end. A full buffer drops the span (counted; the trace
// check then fails) rather than growing inside a timed loop.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// under returns a tracer holding only the spans of ops whose root span
// is called root (a workload roots its warm-up ops under another name),
// with parent indices rebuilt.
func (t *tracer) under(root string) *tracer {
	keep := make(map[int32]bool)
	for _, s := range t.spans {
		if s.parent < 0 && s.name == root {
			keep[s.op] = true
		}
	}
	out := &tracer{t0: t.t0, scales: t.scales}
	remap := make([]int32, len(t.spans))
	for i, s := range t.spans {
		remap[i] = -1
		if !keep[s.op] {
			continue
		}
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		remap[i] = int32(len(out.spans))
		out.spans = append(out.spans, s)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover, in ms.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += t.ms(s)
		if s.parent >= 0 {
			self[s.parent] -= t.ms(s)
		}
	}
	return self
}

// durations returns the duration in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, t.ms(s))
		}
	}
	return out
}

// selfOf returns the self time in ms of every span called name.
func (t *tracer) selfOf(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// check verifies the trace is self-consistent: no span was dropped or
// left open, every child lies inside its parent and shares its op,
// siblings do not overlap, and the self times of each op sum to the
// op's root duration within 1 %. When minCover > 0 the children of
// every root named root must also cover at least that share of it —
// the harness adds nothing unaccounted between its calls.
func (t *tracer) check(root string, minCover float64) []string {
	var errs []string
	fail := func(format string, a ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Sprintf(format, a...))
		}
	}
	if t.dropped > 0 {
		fail("trace: %d spans dropped (buffer of %d too small)", t.dropped, cap(t.spans))
	}
	if len(t.stack) != 0 {
		fail("trace: %d spans left open", len(t.stack))
	}
	lastEnd := make(map[int32]int64) // parent → end of its latest child
	opSelf := make(map[int32]float64)
	opRoot := make(map[int32]float64)
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.end < s.start {
			fail("trace: span %d %s ends before it starts", i, s.name)
		}
		opSelf[s.op] += self[i]
		if s.parent < 0 {
			opRoot[s.op] += t.ms(s)
			if minCover > 0 && s.name == root && t.ms(s) > 0 {
				if cover := 1 - self[i]/t.ms(s); cover < minCover {
					fail("trace: op %d: child spans cover %.4f of %s, want >= %.2f", s.op, cover, root, minCover)
				}
			}
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			fail("trace: span %d %s lies outside its parent %s", i, s.name, p.name)
		}
		if s.op != p.op {
			fail("trace: span %d %s has op %d, parent has %d", i, s.name, s.op, p.op)
		}
		if s.start < lastEnd[s.parent] {
			fail("trace: span %d %s overlaps its previous sibling", i, s.name)
		}
		lastEnd[s.parent] = s.end
	}
	for op, root := range opRoot {
		if d := opSelf[op] - root; d > 0.01*root || d < -0.01*root {
			fail("trace: op %d self times sum to %.6f ms, root spans to %.6f ms", op, opSelf[op], root)
		}
	}
	sort.Strings(errs)
	return errs
}

// write stores the spans as a Chrome trace-event file (loadable in
// Perfetto or chrome://tracing): one complete event per span, the op id
// and parent index in args.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"op\":%d,\"parent\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.op, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
