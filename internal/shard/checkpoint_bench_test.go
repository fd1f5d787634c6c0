package shard

import (
	"testing"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// checkpointRun sets up boards live boards homing perBoard Tiny
// streams each, with a MemCheckpoints store, for driving
// runCtx.checkpointPass directly. The boards first serve two 250 ms
// epochs, so each stream carries moved BN state and an open
// adaptation window. The returned func stops the boards' actors.
func checkpointRun(tb testing.TB, boards, perBoard int) (*runCtx, func()) {
	m := ufld.MustNewModel(ufld.Tiny(resnet.R18, 2), tensor.NewRNG(3))
	sources := serve.SyntheticFleet(m.Cfg, boards*perBoard, 40, 30, 7)
	cfg := Config{
		Boards: boards, Board: boardConfig(orin.Mode30W, 1), Placement: LeastLoaded{},
		EpochMs: 250, CheckpointEvery: 1, Checkpoints: serve.NewMemCheckpoints(),
	}
	f, err := New(m, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng := serve.New(m, cfg.Board)
	r := &runCtx{f: f, eng: eng, sources: sources, home: make([]int, len(sources)), store: cfg.Checkpoints}
	for bi := 0; bi < boards; bi++ {
		bd := f.openBoard(eng, bi, 0, sources[bi*perBoard:(bi+1)*perBoard])
		for li := 0; li < perBoard; li++ {
			gid := bi*perBoard + li
			bd.globals = append(bd.globals, gid)
			bd.local[gid] = li
			r.home[gid] = bi
		}
		r.boards = append(r.boards, bd)
	}
	for end := 250.0; end <= 500; end += 250 {
		f.broadcast(r.boards, func(bd *board) { bd.step(end) })
	}
	return r, func() {
		for _, bd := range r.boards {
			bd.act.stop()
		}
	}
}

// TestCheckpointPassTrimsKeptBuffers pins that a board keeps one
// encoding per stream it homes: once streams leave it, the next pass
// drops their buffers instead of holding them for the rest of the run.
func TestCheckpointPassTrimsKeptBuffers(t *testing.T) {
	r, stop := checkpointRun(t, 2, 4)
	defer stop()
	bd := r.boards[0]
	r.checkpointPass(0)
	if len(bd.ckpt.enc) != 4 {
		t.Fatalf("board 0 keeps %d encodings for 4 homed streams", len(bd.ckpt.enc))
	}
	for _, gid := range bd.globals[1:] {
		r.home[gid] = 1
	}
	r.checkpointPass(1)
	if len(bd.ckpt.enc) != 1 {
		t.Fatalf("board 0 keeps %d encodings for 1 homed stream", len(bd.ckpt.enc))
	}
	for i, e := range bd.ckpt.enc[1:cap(bd.ckpt.enc)] {
		if e != nil {
			t.Errorf("board 0 still holds %d bytes in slot %d after its stream left", cap(e), i+1)
		}
	}
	if want := 4 + 4 + 1 + 4; r.ckpts != want || r.ckptErrs != 0 {
		t.Errorf("%d checkpoints written, %d failed, want %d written", r.ckpts, r.ckptErrs, want)
	}
}

// BenchmarkCheckpointPass times one coordinator checkpoint pass — the
// fleet's persist phase — over 4 boards homing 4 Tiny streams each:
// every stream encoded on its board's actor, then Put into a
// MemCheckpoints on the coordinator. Run with -benchmem for B/op and
// allocs/op.
func BenchmarkCheckpointPass(b *testing.B) {
	const boards, perBoard = 4, 4
	r, stop := checkpointRun(b, boards, perBoard)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.checkpointPass(i)
	}
	b.StopTimer()
	if r.ckptErrs != 0 || r.ckpts != b.N*boards*perBoard {
		b.Fatalf("%d checkpoints written, %d failed, want %d written", r.ckpts, r.ckptErrs, b.N*boards*perBoard)
	}
}
