package govern

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/serve"
	"ldbnadapt/internal/stream"
)

// synthBoard is a model-free closed-loop board: the governors' decision
// rules driven by telemetry that reacts to their own controls, with no
// detector and no serving engine underneath, so thousands of epochs
// run in milliseconds.
//
// Capacity (frames per epoch) is proportional to the mode's EffGFLOPS,
// 2.4× on the int8 rung, and shrinks as the adaptation cadence
// tightens (SkipAdapt drops the adaptation work). Busy time is served
// over capacity times the workers' span, so the busy-ms per frame a
// Predictive governor derives its capacity model from is consistent
// with what the board does. A frame left in the backlog misses its
// deadline; a fresh frame hits at a rate that falls with utilization,
// and 15 W float32 has a latency floor that misses most frames even
// unloaded. Arrivals are a seeded square wave of lulls and bursts.
type synthBoard struct {
	arrivals []int // per epoch, drawn up front so probes see the future
	queue    int
	forecast float64
}

const (
	synthSpanMs  = 250.0
	synthWorkers = 2
	// synthFramesPerGFLOP scales EffGFLOPS to frames per epoch: MAXN
	// float32 at cadence 4 serves 60 frames, 15 W serves 10.
	synthFramesPerGFLOP = 0.0275
)

// newSynthBoard draws epochs+1 epochs of bursty arrivals: lulls of
// 10–40 epochs near 6 frames alternate with bursts of 5–20 epochs
// near 45, each epoch jittered ±30 %.
func newSynthBoard(seed uint64, epochs int) *synthBoard {
	state := seed*0x9E3779B97F4A7C15 + 1
	rand := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	b := &synthBoard{arrivals: make([]int, 0, epochs+1)}
	for burst := false; len(b.arrivals) <= epochs; burst = !burst {
		mean, n := 2+10*rand(), 8+int(rand()*33)
		if burst {
			mean, n = 15+40*rand(), 4+int(rand()*17)
		}
		for i := 0; i < n && len(b.arrivals) <= epochs; i++ {
			b.arrivals = append(b.arrivals, int(mean*(0.7+0.6*rand())))
		}
	}
	return b
}

// capacity is how many frames one epoch serves under c.
func synthCapacity(c serve.Controls) float64 {
	eff := c.Mode.EffGFLOPS
	if c.Quantized {
		eff *= 2.4
	}
	work := 1.0
	if c.AdaptEvery > 0 && c.Policy != stream.SkipAdapt {
		work += 1.5 / float64(c.AdaptEvery)
	}
	return eff * synthFramesPerGFLOP / work
}

// epoch plays epoch e under c from the board's current backlog and
// returns its telemetry and the backlog it leaves; the board is not
// changed, so Oracle's probe and the committed epoch are one model.
func (b *synthBoard) epoch(e int, c serve.Controls) (serve.EpochStats, int) {
	capacity := synthCapacity(c)
	arrived := b.arrivals[e]
	served := b.queue + arrived
	if served > int(capacity) {
		served = int(capacity)
	}
	left := b.queue + arrived - served
	dropped := 0
	if c.Policy == stream.DropFrames {
		if keep := int(capacity / 4); left > keep {
			dropped, left = left-keep, keep
		}
	}
	util := float64(served) / capacity
	es := serve.EpochStats{
		Epoch: e, StartMs: float64(e) * synthSpanMs, EndMs: float64(e+1) * synthSpanMs,
		Controls: c, Arrived: arrived, Served: served, FramesDropped: dropped,
		QueueDepth: left, Utilization: util, BusyMs: util * synthSpanMs * synthWorkers,
		DeadlineHitRate: 1,
	}
	if served > 0 {
		fresh := served - b.queue // the backlog is served first, and late
		if fresh < 0 {
			fresh = 0
		}
		hit := 1 - 0.5*math.Max(0, util-0.85)
		if c.Mode.Watts == orin.Mode15W.Watts && !c.Quantized {
			hit *= 0.3 // the 15 W float32 latency floor
		}
		es.DeadlineHitRate = hit * float64(fresh) / float64(served)
	}
	es.BusyEnergyMJ = float64(c.Mode.Watts) * es.BusyMs
	es.IdleEnergyMJ = c.Mode.IdleWatts * synthSpanMs
	es.EnergyMJ = es.BusyEnergyMJ + es.IdleEnergyMJ
	return es, left
}

// run drives ctl through epochs epochs of the board and writes every
// decision — mode, policy, cadence, precision and the governor's
// stated reason — into h.
func (b *synthBoard) run(h hash.Hash, ctl serve.Controller, epochs int) {
	cur := ctl.Start(serve.Config{
		Workers: synthWorkers, Mode: orin.Mode60W, Policy: stream.DropNone, AdaptEvery: 4,
	})
	for e := 0; e < epochs; e++ {
		es, left := b.epoch(e, cur)
		b.queue = left
		b.forecast = 0.5*float64(es.Arrived) + 0.5*b.forecast
		es.ForecastArrived = b.forecast
		probe := func(c serve.Controls) serve.EpochStats {
			pes, _ := b.epoch(e+1, c)
			return pes
		}
		cur = ctl.Decide(es, cur, probe)
		why := ""
		if ex, ok := ctl.(serve.Explainer); ok {
			why = ex.Explain()
		}
		fmt.Fprintf(h, "%d %s %s %d %t %s\n", e, cur.Mode.Name, cur.Policy, cur.AdaptEvery, cur.Quantized, why)
	}
}

// TestGovernorFingerprint pins every governor's decisions across
// commits: each of the four runs on the synthetic board under two
// power budgets and two arrival seeds for 3000 epochs, and the SHA-256
// over every epoch's controls and Explain() must match the constants
// below. The telemetry is continuous, so nudging any decision
// threshold — the service target, the descent and pre-climb
// utilization ceilings, the load margin, the peak decay, patience or
// Backoff — by 1–2 % flips some decision and turns a row red. Never
// edit a constant in the same change as a refactor.
func TestGovernorFingerprint(t *testing.T) {
	const epochs = 3000
	want := map[string]string{
		"static/0":      "db75609b3d95339f53ac59d193821875d8377976c62b8c38a4cb31f94683bb34",
		"static/30":     "945b0ebf4ba4e91a2bbc5be4d435f0fe4eed2e5cb1f1161f624dc42684b2a914",
		"hysteresis/0":  "c88e5cdc76bdc347176eca56316f3305fd50185ee659fb810e125c96379c5811",
		"hysteresis/30": "276211f7956c0e012e35d9fd94886e217e71fa034ad445924747cd8a92ce85cb",
		"predictive/0":  "c5674a8dbdf934c8acee3a7172f3ec8de90fd85d2b555170c1701598cea5b5cf",
		"predictive/30": "3fbfc115c222c1acc22f3143920df9f3d2156a45f21f67d85008b3137f7ce652",
		"oracle/0":      "7eccf8f0e1431b9d576f0b223bb73c4a4c345959598dd87047d17fa208f44492",
		"oracle/30":     "1a7ebd4c32d3015a417e37f596fb1f8e8656f023729e579ebbf33ff755207a40",
	}
	for _, name := range []string{"static", "hysteresis", "predictive", "oracle"} {
		for _, budget := range []int{0, 30} {
			h := sha256.New()
			for _, seed := range []uint64{1, 2} {
				ctl, err := ByName(name, budget)
				if err != nil {
					t.Fatal(err)
				}
				newSynthBoard(seed, epochs).run(h, ctl, epochs)
			}
			key := fmt.Sprintf("%s/%d", name, budget)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: fingerprint %s, want %s", key, got, want[key])
			}
		}
	}
}
