package serve

import (
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// TestPropBatchedInt8MatchesSequential is the int8 rung's version of
// the engine's numerical contract (TestPropBatchedForwardMatchesSequential):
// a coalesced batch served through ForwardInferInt8 with per-sample BN
// conditioning must produce exactly the logits that sequential
// single-frame ForwardInferInt8 calls produce with each stream's state
// installed. The float pin tolerates nothing and neither does this
// one — activation scales are per sample and weight scales are batch
// independent, so quantization introduces no cross-stream coupling
// and the tolerance stays zero even on the lossy rung. (The int8-vs-
// float error budget is pinned separately, at the kernel and model
// level; batching is never allowed to add to it.)
func TestPropBatchedInt8MatchesSequential(t *testing.T) {
	for _, seed := range []uint64{5, 23, 87} {
		rng := tensor.NewRNG(seed)
		m := testModel(seed)
		n := 2 + int(seed%3) // batch sizes 2..4
		samples := testSamples(m.Cfg, n, seed+1)
		states := make([]*streamState, n)
		for i := range states {
			states[i] = perturbedState(m, rng)
		}

		// Batched path: shared-weight replica, per-sample sources.
		replica := m.Replica()
		bns := replica.BatchNorms()
		for j, b := range bns {
			srcs := make([]*nn.BNSource, n)
			for i := range srcs {
				srcs[i] = &states[i].bn[j]
			}
			b.SetSampleSources(srcs)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		x := ufld.Images(m.Cfg, samples, idx)
		batched := replica.ForwardInferInt8(x).Clone()
		for _, b := range bns {
			b.SetSampleSources(nil)
		}

		// Sequential reference: single-frame int8 forwards with the
		// stream state installed as the model state. The clone's weights
		// are bit-identical to the replica's, so its lazy quantization
		// produces the same int8 weights and scales.
		ref := m.Clone(rng.Split())
		refBNs := ref.BatchNorms()
		rows := m.Cfg.Groups()
		classes := m.Cfg.Classes()
		for i := 0; i < n; i++ {
			for j, b := range refBNs {
				copy(b.RunningMean.Data, states[i].bn[j].Mean)
				copy(b.RunningVar.Data, states[i].bn[j].Var)
				copy(b.Gamma.Value.Data, states[i].bn[j].Gamma)
				copy(b.Beta.Value.Data, states[i].bn[j].Beta)
			}
			xi := ufld.Images(m.Cfg, samples, []int{i})
			want := ref.ForwardInferInt8(xi)
			for r := 0; r < rows; r++ {
				for cl := 0; cl < classes; cl++ {
					got := batched.At(i*rows+r, cl)
					exp := want.At(r, cl)
					if got != exp {
						t.Fatalf("seed %d sample %d row %d class %d: batched int8 %g != sequential int8 %g",
							seed, i, r, cl, got, exp)
					}
				}
			}
		}
	}
}
