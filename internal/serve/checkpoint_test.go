package serve

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// checkpointedSession drives a single-stream session two epochs deep —
// past warmup, mid adaptation window — and returns it with its engine,
// so checkpoints cover moved optimizer moments and pending samples.
func checkpointedSession(t *testing.T) (*Engine, *Session) {
	t.Helper()
	m := testModel(91)
	e := New(m, migrationConfig())
	fleet := SyntheticFleet(m.Cfg, 1, 12, 4, 17) // arrivals every 250 ms
	s := e.NewSession(fleet)
	s.RunEpoch(1000)
	s.RunEpoch(2000)
	return e, s
}

// equalCheckpoints compares two checkpoints bitwise, field by field.
func equalCheckpoints(t *testing.T, want, got *Checkpoint) {
	t.Helper()
	if got.Stream != want.Stream || got.Epoch != want.Epoch || got.FPS != want.FPS {
		t.Fatalf("identity diverges: %d/%d/%v vs %d/%d/%v",
			got.Stream, got.Epoch, got.FPS, want.Stream, want.Epoch, want.FPS)
	}
	if got.sinceAdapt != want.sinceAdapt {
		t.Fatalf("window position %d, want %d", got.sinceAdapt, want.sinceAdapt)
	}
	w, g := want.state, got.state
	if g.steps != w.steps || g.opt.Step != w.opt.Step {
		t.Fatalf("counters diverge: steps %d/%d, opt %d/%d", g.steps, w.steps, g.opt.Step, w.opt.Step)
	}
	if len(g.bn) != len(w.bn) {
		t.Fatalf("%d BN layers, want %d", len(g.bn), len(w.bn))
	}
	for j := range w.bn {
		for c := range w.bn[j].Mean {
			if w.bn[j].Mean[c] != g.bn[j].Mean[c] || w.bn[j].Var[c] != g.bn[j].Var[c] ||
				w.bn[j].Gamma[c] != g.bn[j].Gamma[c] || w.bn[j].Beta[c] != g.bn[j].Beta[c] {
				t.Fatalf("BN layer %d channel %d diverges", j, c)
			}
		}
	}
	for i := range w.opt.M {
		if w.opt.M[i] != g.opt.M[i] || w.opt.V[i] != g.opt.V[i] {
			t.Fatalf("optimizer moment %d diverges", i)
		}
	}
	if len(g.pending) != len(w.pending) {
		t.Fatalf("%d pending samples, want %d", len(g.pending), len(w.pending))
	}
	for i := range w.pending {
		wp, gp := w.pending[i], g.pending[i]
		if !bytes.Equal(f32bytes(wp.Image.Data), f32bytes(gp.Image.Data)) {
			t.Fatalf("pending sample %d image diverges", i)
		}
		if len(wp.Cells) != len(gp.Cells) {
			t.Fatalf("pending sample %d has %d cells, want %d", i, len(gp.Cells), len(wp.Cells))
		}
		for j := range wp.Cells {
			if wp.Cells[j] != gp.Cells[j] {
				t.Fatalf("pending sample %d cell %d diverges", i, j)
			}
		}
	}
	if got.fcKind != want.fcKind || len(got.fcState) != len(want.fcState) {
		t.Fatalf("forecaster %q/%d, want %q/%d", got.fcKind, len(got.fcState), want.fcKind, len(want.fcState))
	}
	for i := range want.fcState {
		if got.fcState[i] != want.fcState[i] {
			t.Fatalf("forecaster state %d: %v, want %v", i, got.fcState[i], want.fcState[i])
		}
	}
}

// f32bytes views a float32 slice's raw bits for bitwise comparison.
func f32bytes(v []float32) []byte {
	var buf bytes.Buffer
	for _, f := range v {
		t := packF64([]float64{float64(f)})
		_, _ = t.WriteTo(&buf)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip is the golden codec pin: a checkpoint taken
// mid-adaptation encodes, decodes, and re-encodes to bitwise-identical
// state and bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	e, s := checkpointedSession(t)
	defer s.Finish()
	c := s.Checkpoint(0)
	c.Stream, c.Epoch = 7, 2
	if c.state.steps == 0 || c.state.opt.Step == 0 {
		t.Fatalf("scenario too shallow: %d steps, %d opt steps", c.state.steps, c.state.opt.Step)
	}
	if len(c.state.pending) == 0 || c.sinceAdapt == 0 {
		t.Fatalf("scenario closed its adaptation window: %d pending, window at %d",
			len(c.state.pending), c.sinceAdapt)
	}
	if c.fcKind == "" {
		t.Fatal("no forecaster state captured")
	}

	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := e.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	equalCheckpoints(t, c, got)
	// baseSteps resets at decode: a recovering board charges itself only
	// the steps it will execute, like any attach.
	if got.state.baseSteps != got.state.steps {
		t.Fatalf("decoded baseSteps %d != steps %d", got.state.baseSteps, got.state.steps)
	}
	// Deterministic bytes: encoding the decoded checkpoint reproduces
	// the original file exactly.
	var again bytes.Buffer
	if err := EncodeCheckpoint(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("re-encode diverges: %d vs %d bytes", again.Len(), buf.Len())
	}
	// The restored forecaster predicts exactly what the live one does.
	if got.Forecast() != s.fc[0].Forecast() {
		t.Fatalf("restored forecast %v != live %v", got.Forecast(), s.fc[0].Forecast())
	}
}

// TestCheckpointV2Golden pins the LDP1 checkpoint layout across
// commits: testdata/checkpoint_v2.ldp1 is checkpointedSession's stream
// (Stream 7, Epoch 2) encoded once and committed — past warm-up, with
// non-zero Adam moments and an open adaptation window. It must still
// decode, and re-encode to the identical bytes.
func TestCheckpointV2Golden(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v2.ldp1")
	if err != nil {
		t.Fatal(err)
	}
	e := New(testModel(91), migrationConfig())
	c, err := e.DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stream != 7 || c.Epoch != 2 || c.state.opt.Step == 0 || len(c.state.pending) == 0 {
		t.Fatalf("golden decodes to stream %d epoch %d, %d optimizer steps, %d pending",
			c.Stream, c.Epoch, c.state.opt.Step, len(c.state.pending))
	}
	moved := false
	for i := range c.state.opt.M {
		moved = moved || c.state.opt.M[i] != 0 && c.state.opt.V[i] != 0
	}
	if !moved {
		t.Fatal("golden carries zero optimizer moments")
	}
	var again bytes.Buffer
	if err := EncodeCheckpoint(&again, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Fatalf("re-encode diverges from the golden: %d vs %d bytes", again.Len(), len(data))
	}
}

// TestCheckpointRestoreMatchesHandoff: resuming a stream from its
// decoded checkpoint is bitwise equivalent to migrating it live — the
// recovery path is the migration path with storage in the middle.
func TestCheckpointRestoreMatchesHandoff(t *testing.T) {
	m := testModel(95)
	cfg := migrationConfig()
	run := func(throughCheckpoint bool) *streamState {
		fleet := SyntheticFleet(m.Cfg, 1, 12, 4, 17)
		e := New(m, cfg)
		s1 := e.NewSession(fleet)
		s2 := e.NewSession(nil)
		s1.RunEpoch(1000)
		s2.RunEpoch(1000)
		c := s1.Checkpoint(0)
		h := s1.DetachStream(0)
		if h == nil {
			t.Fatal("nothing to detach")
		}
		if throughCheckpoint {
			var buf bytes.Buffer
			if err := EncodeCheckpoint(&buf, c); err != nil {
				t.Fatal(err)
			}
			dec, err := e.DecodeCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			h = e.RestoreHandoff(dec, h.Source)
		}
		local := s2.AttachStream(h)
		for !s1.Done() || !s2.Done() {
			end := s1.Now() + 1000
			s1.RunEpoch(end)
			s2.RunEpoch(end)
		}
		if rep := s2.Finish(); rep.Streams[local].Frames != 8 {
			t.Fatalf("destination served %d frames, want 8", rep.Streams[local].Frames)
		}
		s1.Finish()
		return s2.states[local]
	}
	want := run(false)
	got := run(true)
	if want.steps != got.steps || want.opt.Step != got.opt.Step {
		t.Fatalf("counters diverge: %d/%d vs %d/%d", got.steps, got.opt.Step, want.steps, want.opt.Step)
	}
	for j := range want.bn {
		for c := range want.bn[j].Mean {
			if want.bn[j].Mean[c] != got.bn[j].Mean[c] || want.bn[j].Gamma[c] != got.bn[j].Gamma[c] {
				t.Fatalf("BN layer %d channel %d diverges through checkpoint", j, c)
			}
		}
	}
	for i := range want.opt.M {
		if want.opt.M[i] != got.opt.M[i] || want.opt.V[i] != got.opt.V[i] {
			t.Fatalf("optimizer moment %d diverges through checkpoint", i)
		}
	}
}

// TestCheckpointDecodeErrors covers the corrupt-checkpoint paths: a
// truncated file, a foreign magic, and an empty reader must all error
// out of nn.LoadParams rather than yield a torn checkpoint.
func TestCheckpointDecodeErrors(t *testing.T) {
	e, s := checkpointedSession(t)
	defer s.Finish()
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, s.Checkpoint(0)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := e.DecodeCheckpoint(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("decode accepted a truncated checkpoint")
	}
	bad := append([]byte(nil), data...)
	bad[0], bad[1] = 'X', 'Y'
	_, err := e.DecodeCheckpoint(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign magic: err = %v, want bad magic", err)
	}
	if _, err := e.DecodeCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("decode accepted an empty file")
	}
}

// TestCheckpointStores pins the two store implementations: latest-wins
// semantics, missing-stream misses, and defensive copying.
func TestCheckpointStores(t *testing.T) {
	file, err := NewFileCheckpoints(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]CheckpointStore{
		"mem":  NewMemCheckpoints(),
		"file": file,
	} {
		if _, ok, err := store.Latest(3); err != nil || ok {
			t.Fatalf("%s: empty store Latest = %v/%v, want miss", name, ok, err)
		}
		if err := store.Put(3, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(3, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		got, ok, err := store.Latest(3)
		if err != nil || !ok || string(got) != "v2" {
			t.Fatalf("%s: Latest = %q/%v/%v, want v2", name, got, ok, err)
		}
		got[0] = 'X' // mutating the returned slice must not corrupt the store
		if again, _, _ := store.Latest(3); string(again) != "v2" {
			t.Fatalf("%s: store aliased its buffer: %q", name, again)
		}
		if _, ok, _ := store.Latest(4); ok {
			t.Fatalf("%s: hit for a never-checkpointed stream", name)
		}
	}
}
