package serve

import (
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// testModel builds a small random detector for serving tests.
func testModel(seed uint64) *ufld.Model {
	return ufld.MustNewModel(ufld.Tiny(resnet.R18, 2), tensor.NewRNG(seed))
}

// testSamples renders frames in the MoLane target domain.
func testSamples(cfg ufld.Config, n int, seed uint64) []ufld.Sample {
	ds := carlane.Generate(cfg, carlane.SplitSpec{
		Name:    "serve-test",
		Layouts: []carlane.Layout{carlane.Ego2},
		Domains: []carlane.Domain{carlane.MoReal},
		N:       n,
		Seed:    seed,
	})
	return ds.Samples
}

// perturbedState builds a stream state whose BN snapshot has drifted
// away from the model's, simulating a stream mid-adaptation.
func perturbedState(m *ufld.Model, rng *tensor.RNG) *streamState {
	st := newStreamState(m)
	for j := range st.bn {
		for c := range st.bn[j].Mean {
			st.bn[j].Mean[c] += float32(rng.Range(-0.2, 0.2))
			st.bn[j].Var[c] *= float32(rng.Range(0.7, 1.4))
			st.bn[j].Gamma[c] *= float32(rng.Range(0.8, 1.2))
			st.bn[j].Beta[c] += float32(rng.Range(-0.1, 0.1))
		}
	}
	return st
}

// TestPropBatchedForwardMatchesSequential is the engine's numerical
// contract: a coalesced batch of frames from different streams, served
// through the Infer fast path with per-sample BN conditioning, must
// produce exactly the logits that sequential eval-mode Model.Forward
// calls produce with each stream's state installed. The arithmetic is
// designed to be bitwise identical, so the tolerance is zero.
func TestPropBatchedForwardMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{3, 17, 91} {
		rng := tensor.NewRNG(seed)
		m := testModel(seed)
		n := 2 + int(seed%3) // batch sizes 2..4
		samples := testSamples(m.Cfg, n, seed+1)
		states := make([]*streamState, n)
		for i := range states {
			states[i] = perturbedState(m, rng)
		}

		// Batched path: shared-weight replica, per-sample sources.
		replica := m.Replica(rng.Split())
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
		batched := replica.ForwardInfer(x).Clone()
		for _, b := range bns {
			b.SetSampleSources(nil)
		}

		// Sequential reference: plain eval-mode Forward with the
		// stream state installed as the model state.
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
			want := ref.Forward(xi, nn.Eval)
			for r := 0; r < rows; r++ {
				for cl := 0; cl < classes; cl++ {
					got := batched.At(i*rows+r, cl)
					exp := want.At(r, cl)
					if got != exp {
						t.Fatalf("seed %d sample %d row %d class %d: batched %g != sequential %g",
							seed, i, r, cl, got, exp)
					}
				}
			}
		}
	}
}

// TestPropInferReusesStorage pins the allocation contract of the fast
// path: the second ForwardInfer call must hand back the same backing
// storage (scratch reuse), while an Eval Forward writes the other
// scratch class and never the infer one.
func TestPropInferReusesStorage(t *testing.T) {
	m := testModel(5)
	samples := testSamples(m.Cfg, 2, 6)
	x := ufld.Images(m.Cfg, samples, []int{0, 1})
	a := m.ForwardInfer(x)
	aPtr := &a.Data[0]
	b := m.ForwardInfer(x)
	if &b.Data[0] != aPtr {
		t.Fatal("ForwardInfer did not reuse its scratch output buffer")
	}
	c := m.Forward(x, nn.Eval)
	if &c.Data[0] == aPtr {
		t.Fatal("Forward must not alias the Infer scratch buffer")
	}
}

// TestReplicaSharesWeights pins the memory contract: replicas alias
// the conv/FC weight tensors and own their BN parameters.
func TestReplicaSharesWeights(t *testing.T) {
	m := testModel(9)
	r := m.Replica(tensor.NewRNG(2))
	mp, rp := m.Params(), r.Params()
	shared, private := 0, 0
	for i := range mp {
		alias := &mp[i].Value.Data[0] == &rp[i].Value.Data[0]
		isBN := false
		for _, suffix := range []string{".gamma", ".beta"} {
			if len(mp[i].Name) > len(suffix) && mp[i].Name[len(mp[i].Name)-len(suffix):] == suffix {
				isBN = true
			}
		}
		switch {
		case isBN && alias:
			t.Fatalf("%s: BN parameter aliased across replicas", mp[i].Name)
		case !isBN && !alias:
			t.Fatalf("%s: weight not shared with replica", mp[i].Name)
		case isBN:
			private++
		default:
			shared++
		}
		if &mp[i].Grad.Data[0] == &rp[i].Grad.Data[0] {
			t.Fatalf("%s: gradient accumulator aliased across replicas", mp[i].Name)
		}
	}
	if shared == 0 || private == 0 {
		t.Fatalf("degenerate parameter split: %d shared, %d private", shared, private)
	}
	// Running statistics must be private too.
	mb, rb := m.BatchNorms(), r.BatchNorms()
	for i := range mb {
		if &mb[i].RunningMean.Data[0] == &rb[i].RunningMean.Data[0] {
			t.Fatalf("%s: running stats aliased across replicas", mb[i].Name())
		}
	}
}
