package main

import (
	"bytes"
	"math"
	"time"

	"ldbnadapt/internal/adapt"
	"ldbnadapt/internal/forecast"
	"ldbnadapt/internal/govern"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/shard"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

const (
	cpEpochMs = 250.0
	cpBudgetW = 30
)

// controlPlane is everything the fleet does between epochs, with no
// model compute at all: two sessions share a large fleet with a long
// future and are never stepped; each round probes them, runs the
// governors, moves streams between them, checkpoints streams through
// the codec and a store, and re-places the fleet.
type controlPlane struct {
	cfg     ufld.Config
	engine  *serve.Engine
	fleet   []*stream.Source
	frameMs float64
	first   *cpState
}

// cpState is one block's mutable state.
type cpState struct {
	sess    [2]*serve.Session
	live    [2][]int // board-local ids that still own future frames
	globals [2][]int // board-local id → fleet stream id
}

func (w *controlPlane) newState() *cpState {
	half := len(w.fleet) / 2
	st := &cpState{}
	for b := 0; b < 2; b++ {
		part := w.fleet[b*half : (b+1)*half]
		st.sess[b] = w.engine.NewSession(part)
		for li := range part {
			st.live[b] = append(st.live[b], li)
			st.globals[b] = append(st.globals[b], b*half+li)
		}
	}
	return st
}

func (st *cpState) finish() {
	for _, s := range st.sess {
		s.Finish()
	}
}

func (w *controlPlane) setups(sz sizes) int { return sz.cpSetups }

func (w *controlPlane) setup(e *env) {
	sz := e.sz
	w.cfg = ufld.Tiny(resnet.R18, 2)
	model := ufld.MustNewModel(w.cfg, tensor.NewRNG(e.seed))
	w.fleet = serve.SyntheticFleetShared(w.cfg, sz.cpStreams, sz.cpFrames, 30, e.seed*1000+11)
	w.engine = serve.New(model, serve.Config{
		Workers: e.workers, MaxBatch: 8, AdaptEvery: 4, Adapt: adapt.DefaultConfig(),
		Mode: orin.Mode30W, Policy: stream.DropFrames, Backlog: 2,
	})
	w.frameMs = w.engine.FrameLatencyMs(1)
	w.first = w.newState()
}

func (w *controlPlane) teardown() {
	if w.first != nil {
		w.first.finish()
		w.first = nil
	}
}

func (w *controlPlane) spansPerBlock(e *env) int {
	return (e.sz.cpWarm + e.sz.cpRounds) * (24 + 2*e.sz.cpMoves + 6*e.sz.cpCkpts)
}

func (w *controlPlane) timedRoot() string { return "bench.round" }

func (w *controlPlane) block(e *env, tr *tracer) *blockOut {
	sz := e.sz
	out := newBlockOut(sz.cpRounds)
	out.ctlScaled = true // here the control plane is the op
	st := w.first
	w.first = nil
	if st == nil {
		t0 := time.Now()
		st = w.newState()
		out.layerMs["serve.new_session_ms"] = []float64{float64(time.Since(t0)) / 1e6 / 2}
	}
	defer st.finish()

	ecfg := w.engine.Config()
	oracle := &govern.Oracle{BudgetW: cpBudgetW}
	hyst := &govern.Hysteresis{BudgetW: cpBudgetW}
	pred := &govern.Predictive{Hysteresis: govern.Hysteresis{BudgetW: cpBudgetW}}
	oracle.Start(ecfg)
	hyst.Start(ecfg)
	pred.Start(ecfg)
	store := serve.NewMemCheckpoints()
	holts := make([]forecast.Forecaster, len(w.fleet))
	for i := range holts {
		holts[i] = forecast.Default()
	}
	pick := tensor.NewRNG(e.seed) // which streams move and checkpoint
	var enc, reenc bytes.Buffer
	half := len(w.fleet) / 2

	var mark uint64
	ckptOK, ckptN := 0, 0
	for round := 0; round < sz.cpWarm+sz.cpRounds; round++ {
		timed := round >= sz.cpWarm
		if round == sz.cpWarm {
			mark = memMark()
		}
		rootName := "bench.round"
		if !timed {
			rootName = "bench.warmup"
		}
		failed := out.failed
		if timed {
			out.calMs = append(out.calMs, e.cal.sample())
		}
		tr.nextOp()
		t0 := time.Now()
		root := tr.begin(rootName)

		// Baseline what-if of the next epoch on both boards.
		var es [2]serve.EpochStats
		for b, s := range st.sess {
			sp := tr.begin("serve.Probe")
			es[b] = s.Probe(s.Controls(), cpEpochMs)
			tr.end(sp)
		}
		if round == 0 {
			// Before any stream has moved the two boards are as set-up
			// built them, so what the probes price is the same for every
			// seed.
			planned, served := es[0].Arrived+es[1].Arrived, es[0].Served+es[1].Served
			out.exact["produced_frames"] = float64(planned)
			out.exact["served_frames"] = float64(planned - es[0].FramesDropped - es[1].FramesDropped)
			out.exact["probe_served"] = float64(served)
			if served > 0 {
				out.exact["deadline_hit_rate"] = (es[0].DeadlineHitRate*float64(es[0].Served) + es[1].DeadlineHitRate*float64(es[1].Served)) / float64(served)
				out.exact["energy_j_per_frame"] = (es[0].EnergyMJ + es[1].EnergyMJ) / 1e3 / float64(served)
			}
		}

		// One Holt observation and forecast per stream, as a session
		// makes at every boundary.
		sp := tr.begin("forecast.Holt")
		for b := range st.sess {
			es[b].ForecastArrived = 0
			for _, li := range st.live[b] {
				f := holts[st.globals[b][li]]
				f.Observe(float64(es[b].StreamArrivals[li]))
				es[b].ForecastArrived += f.Forecast()
			}
		}
		tr.end(sp)

		// Governors decide for board 0; their choice is not actuated, so
		// every round probes the same controls.
		cur := st.sess[0].Controls()
		probes := 0
		probe := func(c serve.Controls) serve.EpochStats {
			p := tr.begin("serve.Probe")
			r := st.sess[0].Probe(c, cpEpochMs)
			tr.end(p)
			probes++
			return r
		}
		sp = tr.begin("govern.Oracle.Decide")
		oracle.Decide(es[0], cur, probe)
		tr.end(sp)
		oracleProbes := probes
		sp = tr.begin("govern.Hysteresis.Decide")
		hyst.Decide(es[0], cur, probe)
		tr.end(sp)
		sp = tr.begin("govern.Predictive.Decide")
		pred.Decide(es[0], cur, probe)
		tr.end(sp)

		// Stream moves, alternating direction so populations hold.
		for k := 0; k < sz.cpMoves; k++ {
			from := (round + k) % 2
			to := 1 - from
			at := pick.Intn(len(st.live[from]))
			li := st.live[from][at]
			gid := st.globals[from][li]
			st.live[from] = append(st.live[from][:at], st.live[from][at+1:]...)
			sp = tr.begin("serve.DetachStream")
			h := st.sess[from].DetachStream(li)
			tr.end(sp)
			if h == nil {
				out.fail("round %d: stream %d had nothing to detach", round, gid)
				continue
			}
			sp = tr.begin("serve.AttachStream")
			nl := st.sess[to].AttachStream(h)
			tr.end(sp)
			for len(st.globals[to]) <= nl {
				st.globals[to] = append(st.globals[to], -1)
			}
			st.globals[to][nl] = gid
			st.live[to] = append(st.live[to], nl)
		}
		if n0, n1 := len(st.live[0]), len(st.live[1]); n0+n1 != len(w.fleet) || n0 < half-sz.cpMoves || n0 > half+sz.cpMoves {
			out.fail("round %d: boards hold %d + %d streams of %d", round, n0, n1, len(w.fleet))
		}

		// Checkpoints through the codec and the store and back.
		for j := 0; j < sz.cpCkpts; j++ {
			b := j % 2
			li := st.live[b][pick.Intn(len(st.live[b]))]
			gid := st.globals[b][li]
			sp = tr.begin("serve.Checkpoint")
			c := st.sess[b].Checkpoint(li)
			tr.end(sp)
			c.Stream, c.Epoch = gid, round
			enc.Reset()
			sp = tr.begin("serve.EncodeCheckpoint")
			err := serve.EncodeCheckpoint(&enc, c)
			tr.end(sp)
			if err == nil {
				sp = tr.begin("serve.MemCheckpoints.Put")
				err = store.Put(gid, enc.Bytes())
				tr.end(sp)
			}
			var data []byte
			if err == nil {
				sp = tr.begin("serve.MemCheckpoints.Latest")
				data, _, err = store.Latest(gid)
				tr.end(sp)
			}
			var back *serve.Checkpoint
			if err == nil {
				sp = tr.begin("serve.DecodeCheckpoint")
				back, err = w.engine.DecodeCheckpoint(bytes.NewReader(data))
				tr.end(sp)
			}
			if err == nil {
				reenc.Reset()
				sp = tr.begin("serve.EncodeCheckpoint")
				err = serve.EncodeCheckpoint(&reenc, back)
				tr.end(sp)
			}
			if timed {
				ckptN++
				out.layer["serve.ckpt_bytes"] = append(out.layer["serve.ckpt_bytes"], float64(enc.Len()))
			}
			switch {
			case err != nil:
				out.fail("round %d: checkpoint of stream %d: %v", round, gid, err)
			case back.Stream != gid || !bytes.Equal(enc.Bytes(), reenc.Bytes()):
				out.fail("round %d: checkpoint of stream %d does not re-encode byte-identically", round, gid)
			case timed:
				ckptOK++
			}
		}

		// Placement of the whole fleet from admission-epoch forecasts.
		sp = tr.begin("shard.ForecastLoads")
		loads := shard.ForecastLoads(w.fleet, w.frameMs, cpEpochMs, forecast.Default)
		tr.end(sp)
		sp = tr.begin("shard.LeastLoaded.Place")
		placed := shard.LeastLoaded{}.Place(loads, sz.cpBoards, e.workers)
		tr.end(sp)
		sp = tr.begin("shard.BinPack.Place")
		packed := shard.BinPack{}.Place(loads, sz.cpBoards, e.workers)
		tr.end(sp)
		for _, pl := range [][]int{placed, packed} {
			if len(pl) != len(w.fleet) {
				out.fail("round %d: placement covers %d of %d streams", round, len(pl), len(w.fleet))
			}
			for _, b := range pl {
				if b < 0 || b >= sz.cpBoards {
					out.fail("round %d: placement names board %d of %d", round, b, sz.cpBoards)
					break
				}
			}
		}

		tr.end(root)
		roundNs := time.Since(t0)
		if !timed {
			out.failed = failed // warm-up rounds are not attempted ops
			continue
		}
		planned := es[0].Arrived + es[1].Arrived
		out.attempted++
		if out.failed > failed {
			out.failed = failed + 1 // a round fails once however many of its checks do
		}
		out.op(float64(roundNs)/1e6, planned, float64(roundNs)/1e3/float64(len(w.fleet)))
		out.exact["oracle_probes"] = float64(oracleProbes)
	}
	out.calMs = append(out.calMs, e.cal.sample())
	out.mallocs = memMark() - mark
	out.heapMB = liveHeapMB()
	if ckptN > 0 {
		out.accuracy = float64(ckptOK) / float64(ckptN)
	}
	out.exact["planned_frames"] = float64(out.frames())
	out.exact["checkpoints"] = float64(ckptN)
	out.exact["ckpt_bytes"] = sum(out.layer["serve.ckpt_bytes"])
	out.exact["online_accuracy"] = out.accuracy
	return out
}

func (w *controlPlane) layers(e *env, plain, traced []*blockOut, tr *tracer, out map[string]float64) {
	all := append(append([]*blockOut(nil), plain...), traced...)
	rounds := tr.under("bench.round")
	us := func(name string) float64 { return 1e3 * median(rounds.durations(name)) }
	out["serve.new_session_ms"] = median(pool(all, func(b *blockOut) []float64 { return b.layerMs["serve.new_session_ms"] }))
	out["serve.probe_us"] = us("serve.Probe")
	future := float64(len(w.fleet) / 2 * e.sz.cpFrames) // arrivals on one board's event list
	out["serve.probe_ns_per_arrival"] = 1e3 * out["serve.probe_us"] / future
	out["serve.detach_ms"] = median(rounds.durations("serve.DetachStream"))
	out["serve.attach_ms"] = median(rounds.durations("serve.AttachStream"))
	out["serve.checkpoint_us"] = us("serve.Checkpoint")
	out["serve.ckpt_encode_us"] = us("serve.EncodeCheckpoint")
	out["serve.ckpt_decode_us"] = us("serve.DecodeCheckpoint")
	out["serve.ckpt_bytes"] = median(pool(all, func(b *blockOut) []float64 { return b.layer["serve.ckpt_bytes"] }))
	out["govern.rule_decide_us"] = 1e3 * median(append(rounds.durations("govern.Hysteresis.Decide"), rounds.durations("govern.Predictive.Decide")...))
	out["govern.oracle_decide_ms"] = median(rounds.durations("govern.Oracle.Decide"))
	out["govern.oracle_self_ms"] = median(rounds.selfOf("govern.Oracle.Decide"))
	out["govern.oracle_probes"] = plain[0].exact["oracle_probes"]
	out["forecast.observe_ns"] = 1e6 * median(rounds.durations("forecast.Holt")) / float64(len(w.fleet))
	out["shard.forecast_loads_ms"] = median(rounds.durations("shard.ForecastLoads"))
	out["shard.place_ll_us"] = us("shard.LeastLoaded.Place")
	out["shard.place_binpack_us"] = us("shard.BinPack.Place")

	// An oracle decide is its own work plus the probes it makes: the two
	// must account for all of it.
	self := rounds.selfTimes()
	for i, s := range rounds.spans {
		if s.name != "govern.Oracle.Decide" {
			continue
		}
		children := 0.0
		for _, c := range rounds.spans {
			if c.parent == int32(i) {
				children += rounds.ms(c)
			}
		}
		if total := rounds.ms(s); math.Abs(self[i]+children-total) > 0.01*total {
			e.failf("oracle decide of op %d: self %.4f ms + probes %.4f ms != %.4f ms", s.op, self[i], children, total)
		}
	}
}
