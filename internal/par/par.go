// Package par is the shared kernel worker pool: a fixed set of
// long-lived worker goroutines that tensor and nn kernels borrow for
// the duration of one data-parallel loop. It exists so that every
// parallel kernel in the repo shares one runtime with one contract,
// instead of each call spawning ad-hoc goroutines (the pre-pool
// matmul band path paid one goroutine + closure + WaitGroup churn
// per call — measurable garbage on a hot path that is otherwise
// 0 allocs/op).
//
// # Determinism contract
//
// For partitions the index range [0, n) into at most Width(n, minPer)
// contiguous bands and hands each band to exactly one participant
// (the caller runs one band itself). Callers must partition only over
// *output ownership*: each output element is written by exactly one
// Chunk call, and the arithmetic inside a Chunk must not depend on
// the band boundaries (loop order per element stays what the serial
// kernel does). Under that discipline the result is bitwise identical
// at any worker count — GOMAXPROCS, pool contention and band count
// change only who computes, never what is computed. The kernel-level
// property suite in internal/tensor pins this for every kernel routed
// through the pool.
//
// # Allocation contract
//
// Steady-state For calls perform zero heap allocations: workers are
// spawned once and parked on per-worker task slots (capacity-1
// channels carry a by-value run descriptor), slot ids live in a
// fixed free list, and kernel argument blocks come from Cache (a
// grow-to-high-water free list). This is what lets the parallel
// infer forward stay 0 allocs/op at GOMAXPROCS > 1 (pinned by
// ufld.TestInferForwardAllocationFreeParallel).
//
// # Scheduling model
//
// Helpers are acquired best-effort from a shared free list: a For
// call enlists up to Width-1 free workers and always executes at
// least its own band inline, so concurrent callers (serve workers
// stepping their replicas, fleet board actors) whose kernels each
// call For degrade gracefully toward serial execution instead of
// deadlocking or oversubscribing — under contention a call simply
// finds no free workers and runs serially on its caller. No layer
// nests one For inside another's band: the layers walk their batch
// on the caller and only the kernels band.
package par

import (
	"runtime"
	"sync"
)

// MaxWorkers caps the pool size regardless of GOMAXPROCS. 64 is far
// above any plausible core count for this workload and bounds the
// fixed-size slot arrays that keep For allocation-free.
const MaxWorkers = 64

// Body is one data-parallel loop body. Chunk processes items
// [lo, hi); band is the index of the contiguous band within this For
// call (0 ≤ band < Width(n, minPer)), stable for the duration of the
// call — callers use it to select a band's private scratch line.
type Body interface {
	Chunk(band, lo, hi int)
}

// run is one band dispatch, passed by value through a slot channel.
type run struct {
	body   Body
	band   int
	lo, hi int
}

// slot is one persistent worker's mailbox: a capacity-1 run channel
// and a capacity-1 completion channel, both allocated once at spawn.
type slot struct {
	run  chan run
	done chan struct{}
}

var (
	mu      sync.Mutex
	slots   [MaxWorkers]slot
	free    [MaxWorkers]int // stack of idle worker ids
	nfree   int
	spawned int
)

// worker serves one slot forever. Workers are deliberately never torn
// down: they park on a channel receive between calls, so an idle pool
// costs nothing but MaxWorkers-bounded goroutine stacks (the
// goroutine-leak pin in par_test.go holds the count flat).
func worker(s *slot) {
	for r := range s.run {
		r.body.Chunk(r.band, r.lo, r.hi)
		s.done <- struct{}{}
	}
}

// Width reports the number of bands For would use for n items with at
// least minPer items per band: min(n/minPer, GOMAXPROCS, MaxWorkers),
// floored at 1. Kernels size their per-band lines with it before
// calling For, so that growth happens on the warmup call and the
// steady state allocates nothing.
func Width(n, minPer int) int {
	if minPer < 1 {
		minPer = 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if m := n / minPer; m < w {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// grab pops up to k idle worker ids into ids, spawning workers lazily
// but never more than GOMAXPROCS in total — concurrent For callers
// (fleet board actors) share one GOMAXPROCS-sized pool rather than
// oversubscribing the machine, so a contended call gets fewer (or
// zero) helpers and For degrades toward serial.
func grab(ids []int, k int) int {
	gp := runtime.GOMAXPROCS(0)
	if gp > MaxWorkers {
		gp = MaxWorkers
	}
	mu.Lock()
	for spawned < gp && nfree < k {
		s := &slots[spawned]
		s.run = make(chan run, 1)
		s.done = make(chan struct{}, 1)
		go worker(s)
		free[nfree] = spawned
		nfree++
		spawned++
	}
	got := 0
	for got < k && nfree > 0 {
		nfree--
		ids[got] = free[nfree]
		got++
	}
	mu.Unlock()
	return got
}

// release returns worker ids to the free list.
func release(ids []int) {
	mu.Lock()
	for _, id := range ids {
		free[nfree] = id
		nfree++
	}
	mu.Unlock()
}

// For runs body over [0, n) with at most Width(n, minPer) bands. The
// caller executes the last band inline and blocks until every helper
// band has completed, so body's outputs are fully written when For
// returns. With one band (GOMAXPROCS 1, small n, or an exhausted
// pool) it is exactly body.Chunk(0, 0, n) on the caller — the serial
// reference every parallel kernel is pinned against.
func For(n, minPer int, body Body) {
	if n <= 0 {
		return
	}
	w := Width(n, minPer)
	if w <= 1 {
		body.Chunk(0, 0, n)
		return
	}
	var ids [MaxWorkers]int
	k := grab(ids[:], w-1)
	if k == 0 {
		body.Chunk(0, 0, n)
		return
	}
	bands := k + 1
	// Balanced contiguous partition: every band non-empty (bands ≤ n
	// because Width ≤ n/minPer ≤ n), remainder spread over the leading
	// bands.
	base, ext := n/bands, n%bands
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < ext {
			hi++
		}
		slots[ids[i]].run <- run{body: body, band: i, lo: lo, hi: hi}
		lo = hi
	}
	body.Chunk(k, lo, n)
	for i := 0; i < k; i++ {
		<-slots[ids[i]].done
	}
	release(ids[:k])
}

// Cache is a grow-to-high-water free list of kernel argument blocks.
// Get returns a recycled *T or a new one; Put returns it. After the
// working set peaks, Get/Put allocate nothing — the deterministic
// alternative to sync.Pool (whose GC-clearing would re-allocate
// mid-measurement) for keeping free-function kernels like MatMulInto
// allocation-free while remaining safe under concurrent and nested
// calls.
type Cache[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get pops a recycled block or allocates a fresh one.
func (c *Cache[T]) Get() *T {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	return new(T)
}

// Put recycles a block. Callers should zero any reference fields
// first so the cache does not extend buffer lifetimes.
func (c *Cache[T]) Put(t *T) {
	c.mu.Lock()
	c.free = append(c.free, t)
	c.mu.Unlock()
}
