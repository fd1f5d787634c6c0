package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. Every
// stochastic component in this repository (weight init, data synthesis,
// sampling) draws from an explicitly-seeded RNG so that experiments are
// exactly reproducible run-to-run.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform sample in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a sample from N(mean, std²) via Box–Muller.
func (r *RNG) Normal(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + std*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new, independent generator derived from this one.
// Useful for giving each subsystem its own stream.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// FillUniform fills t with uniform samples in [lo, hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.Range(lo, hi))
	}
}

// FillNormal fills t with N(mean, std²) samples.
func (r *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.Normal(mean, std))
	}
}

// KaimingConv fills a conv weight tensor [outC, inC, kh, kw] with
// Kaiming-He initialization for ReLU networks.
func (r *RNG) KaimingConv(w *Tensor) {
	s := w.Shape()
	if len(s) != 4 {
		panic("tensor: KaimingConv needs [outC,inC,kh,kw] weights")
	}
	fanIn := s[1] * s[2] * s[3]
	std := math.Sqrt(2.0 / float64(fanIn))
	r.FillNormal(w, 0, std)
}

// KaimingLinear fills a linear weight tensor [out, in] with Kaiming-He
// initialization.
func (r *RNG) KaimingLinear(w *Tensor) {
	s := w.Shape()
	if len(s) != 2 {
		panic("tensor: KaimingLinear needs [out,in] weights")
	}
	std := math.Sqrt(2.0 / float64(s[1]))
	r.FillNormal(w, 0, std)
}
