package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// ckptShape is what randomCheckpoint builds: BN layers of the given
// widths (0 leaves a layer's lanes empty), nPending samples whose
// images have shape image, forecaster kind fcKind ("" for none), and
// optimizer moments left empty when emptyOpt is set. valid keeps every
// counter and the FPS in the range DecodeCheckpoint accepts.
type ckptShape struct {
	widths    []int
	nPending  int
	image     []int
	fcKind    string
	quantized bool
	emptyOpt  bool
	valid     bool
}

// randomCheckpoint fills a checkpoint of shape sh with random bits:
// every float32 lane and float64 value is an arbitrary bit pattern
// (NaN payloads included) unless sh.valid narrows the meta fields.
func randomCheckpoint(rng *rand.Rand, sh ckptShape) *Checkpoint {
	bits32 := func(v []float32) {
		for i := range v {
			v[i] = math.Float32frombits(rng.Uint32())
		}
	}
	bits64 := func() float64 { return math.Float64frombits(rng.Uint64()) }
	n := 0
	for _, w := range sh.widths {
		n += 4 * w
	}
	st := &streamState{slab: make([]float32, n), steps: rng.Intn(1000)}
	bits32(st.slab)
	st.bn = bnViews(st.slab, len(sh.widths), func(j int) int { return sh.widths[j] })
	if !sh.emptyOpt {
		st.opt = nn.NewOptState(n / 2)
		bits32(st.opt.M)
		bits32(st.opt.V)
	}
	st.opt.Step = rng.Intn(1000)
	for i := 0; i < sh.nPending; i++ {
		img := tensor.New(sh.image...)
		bits32(img.Data)
		cells := make([]int, rng.Intn(6))
		for j := range cells {
			cells[j] = rng.Intn(101) - 1
		}
		st.pending = append(st.pending, ufld.Sample{Image: img, Cells: cells})
	}
	c := &Checkpoint{
		Stream: rng.Intn(1 << 20), Epoch: rng.Intn(1 << 20), FPS: 1 + 59*rng.Float64(),
		Quantized: sh.quantized, state: st, sinceAdapt: rng.Intn(8),
		fcKind: sh.fcKind,
	}
	if !sh.valid {
		c.Stream, c.Epoch, c.FPS = -c.Stream, c.Epoch-1<<19, bits64()
	}
	if sh.fcKind != "" {
		c.fcState = make([]float64, 1+rng.Intn(5))
		for i := range c.fcState {
			c.fcState[i] = bits64()
		}
	}
	return c
}

// checkEncoding holds c's encoding to the map-based oracle byte for
// byte, then decodes it — through the engine when e is non-nil (c then
// fits e's model), else as a bare LDP1 bundle — and requires the
// re-encoding to reproduce the bytes.
func checkEncoding(t *testing.T, e *Engine, c *Checkpoint) {
	t.Helper()
	var want bytes.Buffer
	if err := encodeCheckpointOracle(&want, c); err != nil {
		t.Fatal(err)
	}
	got := c.appendTo(nil)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%d BN layers, %d pending, fc %q: encoding (%d bytes) diverges from the oracle (%d bytes) at byte %d",
			len(c.state.bn), len(c.state.pending), c.fcKind, len(got), want.Len(), firstDiff(got, want.Bytes()))
	}
	var again []byte
	if e != nil {
		dec, err := e.DecodeCheckpoint(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("encoding does not decode: %v", err)
		}
		again = dec.appendTo(nil)
	} else {
		extras, err := nn.LoadParams(bytes.NewReader(got), nil)
		if err != nil {
			t.Fatalf("encoding does not load as a bundle: %v", err)
		}
		var out bytes.Buffer
		if err := nn.SaveParams(&out, nil, extras); err != nil {
			t.Fatal(err)
		}
		again = out.Bytes()
	}
	if !bytes.Equal(again, got) {
		t.Fatalf("decode and re-encode diverge at byte %d", firstDiff(again, got))
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// modelShape is a valid shape over e's deployed model.
func modelShape(e *Engine) ckptShape {
	var widths []int
	for _, b := range e.model.BatchNorms() {
		widths = append(widths, b.C)
	}
	return ckptShape{widths: widths, image: []int{3, e.model.Cfg.InputH, e.model.Cfg.InputW}, valid: true}
}

// TestEncodeCheckpointMatchesOracle holds the append encoder to the
// map-based oracle, byte for byte, over random states: BN layer counts
// on both sides of each place %03d changes width (10, 100) and past
// 1000, where sorted names stop following numeric order; layers with
// no channels; empty optimizer moments; no, short and long forecaster
// state; 0–3 pending samples; both Quantized values. Each encoding
// must also decode and re-encode to itself — through DecodeCheckpoint
// for states the test model fits.
func TestEncodeCheckpointMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	kinds := []string{"", "naive", "holt"}
	i := 0
	for _, layers := range []int{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1011, 1100} {
		for pending := 0; pending <= 3; pending++ {
			widths := make([]int, layers)
			for j := range widths {
				widths[j] = rng.Intn(4)
			}
			checkEncoding(t, nil, randomCheckpoint(rng, ckptShape{
				widths: widths, nPending: pending, image: []int{1, 2, 1 + rng.Intn(4)},
				fcKind: kinds[i%3], quantized: i%2 == 0, emptyOpt: i/2%2 == 0,
			}))
			i++
		}
	}
	e := New(testModel(91), migrationConfig())
	for i := 0; i < 16; i++ {
		sh := modelShape(e)
		sh.nPending, sh.fcKind, sh.quantized = i%4, kinds[i%3], i/4%2 == 0
		checkEncoding(t, e, randomCheckpoint(rng, sh))
	}
}

// TestLexOrderMatchesSortedNames pins lexNext to the order sorted
// %03d names take, at counts around each place the order turns.
func TestLexOrderMatchesSortedNames(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1009, 1010, 1011,
		1099, 1100, 1101, 1999, 2000, 9999, 10000, 10001, 12345} {
		var got []int
		for i := lexNext(-1, n); i >= 0; i = lexNext(i, n) {
			got = append(got, i)
		}
		want := make([]int, n)
		names := make([]string, n)
		for i := range want {
			want[i], names[i] = i, string(appendIndex(nil, i))+"."
		}
		sort.Slice(want, func(a, b int) bool { return names[want[a]] < names[want[b]] })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: walk visits %v..., want %v...", n, got[:min(len(got), 12)], want[:min(n, 12)])
		}
	}
}

// TestAppendCheckpointMatchesEncode: the live-state encoder the fleet
// runs writes exactly what EncodeCheckpoint writes for the same
// stream's snapshot, stamped alike.
func TestAppendCheckpointMatchesEncode(t *testing.T) {
	_, s := checkpointedSession(t)
	defer s.Finish()
	c := s.Checkpoint(0)
	c.Stream, c.Epoch = 7, 2
	var want bytes.Buffer
	if err := EncodeCheckpoint(&want, c); err != nil {
		t.Fatal(err)
	}
	if got := s.AppendCheckpoint([]byte("stale"), 0, 7, 2); !bytes.Equal(got[5:], want.Bytes()) || string(got[:5]) != "stale" {
		t.Fatalf("AppendCheckpoint diverges from EncodeCheckpoint at byte %d", firstDiff(got[5:], want.Bytes()))
	}
}

// TestCheckpointEncodeAllocs pins the checkpoint path's allocation
// contract: a steady-state encode into a warm buffer — the live-state
// encoder the fleet runs and the snapshot's own — allocates nothing,
// and neither does a MemCheckpoints.Put over a stream's existing slot.
func TestCheckpointEncodeAllocs(t *testing.T) {
	_, s := checkpointedSession(t)
	defer s.Finish()
	buf := s.AppendCheckpoint(nil, 0, 7, 2)
	if n := testing.AllocsPerRun(20, func() { buf = s.AppendCheckpoint(buf[:0], 0, 7, 2) }); n != 0 {
		t.Errorf("AppendCheckpoint into a warm buffer allocates %.1f times, want 0", n)
	}
	c := s.Checkpoint(0)
	if n := testing.AllocsPerRun(20, func() { buf = c.appendTo(buf[:0]) }); n != 0 {
		t.Errorf("encoding a snapshot into a warm buffer allocates %.1f times, want 0", n)
	}
	var enc bytes.Buffer
	if n := testing.AllocsPerRun(20, func() {
		enc.Reset()
		if err := EncodeCheckpoint(&enc, c); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeCheckpoint into a warm bytes.Buffer allocates %.1f times, want 0", n)
	}
	if !bytes.Equal(enc.Bytes(), buf) {
		t.Error("EncodeCheckpoint into a bytes.Buffer differs from appendTo")
	}
	var plain bytes.Buffer
	if err := EncodeCheckpoint(struct{ io.Writer }{&plain}, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), buf) {
		t.Error("EncodeCheckpoint through a plain io.Writer differs from appendTo")
	}
	store := NewMemCheckpoints()
	if err := store.Put(7, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = store.Put(7, buf) }); n != 0 {
		t.Errorf("MemCheckpoints.Put over an existing slot allocates %.1f times, want 0", n)
	}
}

// BenchmarkEncodeCheckpoint times encoding one Tiny stream's
// checkpoint with a full adaptation window pending (AdaptEvery − 1
// samples, the most a boundary can hold): "live" is the fleet's path,
// AppendCheckpoint into a warm buffer; "snapshot" is Session.Checkpoint
// then EncodeCheckpoint into a reused bytes.Buffer, the path callers
// outside the fleet take. Run with -benchmem for B/op and allocs/op.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	m := testModel(91)
	cfg := migrationConfig()
	cfg.AdaptEvery = 4
	s := New(m, cfg).NewSession(SyntheticFleet(m.Cfg, 1, 64, 30, 17))
	defer s.Finish()
	for end := 0.0; len(s.states[0].pending) < cfg.AdaptEvery-1; {
		if s.Done() {
			b.Fatal("stream ended before its window filled")
		}
		end += 10
		s.RunEpoch(end)
	}
	b.Run("live", func(b *testing.B) {
		buf := s.AppendCheckpoint(nil, 0, 7, 2)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = s.AppendCheckpoint(buf[:0], 0, 7, 2)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			c := s.Checkpoint(0)
			c.Stream, c.Epoch = 7, 2
			if err := EncodeCheckpoint(&buf, c); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
