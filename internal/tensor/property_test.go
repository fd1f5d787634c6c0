package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// quickCfg bounds the number of generated cases so the whole suite
// stays fast on a single-core runner.
var quickCfg = &quick.Config{MaxCount: 40}

// smallVec converts arbitrary quick-generated bytes into a bounded
// float vector, avoiding NaN/Inf inputs.
func smallVec(seed uint64, n int) []float32 {
	rng := NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Range(-10, 10))
	}
	return v
}

func TestPropAddCommutative(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		a := FromSlice(smallVec(seed, n), n)
		b := FromSlice(smallVec(seed+1, n), n)
		return Add(a, b).AllClose(Add(b, a), 1e-6)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddAssociative(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		a := FromSlice(smallVec(seed, n), n)
		b := FromSlice(smallVec(seed+1, n), n)
		c := FromSlice(smallVec(seed+2, n), n)
		return Add(Add(a, b), c).AllClose(Add(a, Add(b, c)), 1e-4)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleDistributes(t *testing.T) {
	f := func(seed uint64, nRaw uint8, alphaRaw int8) bool {
		n := int(nRaw%32) + 1
		alpha := float32(alphaRaw) / 16
		a := FromSlice(smallVec(seed, n), n)
		b := FromSlice(smallVec(seed+1, n), n)
		return Scale(Add(a, b), alpha).AllClose(Add(Scale(a, alpha), Scale(b, alpha)), 1e-3)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubSelfIsZero(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		a := FromSlice(smallVec(seed, n), n)
		return Sub(a, a).Norm2() == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		r, c := int(rRaw%12)+1, int(cRaw%12)+1
		a := FromSlice(smallVec(seed, r*c), r, c)
		return Transpose(Transpose(a)).AllClose(a, 0)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulTransposeLaw(t *testing.T) {
	// (a·b)ᵀ == bᵀ·aᵀ
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%8)+1, int(kRaw%8)+1, int(nRaw%8)+1
		a := FromSlice(smallVec(seed, m*k), m, k)
		b := FromSlice(smallVec(seed+1, k*n), k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return lhs.AllClose(rhs, 1e-2)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropDotCauchySchwarz(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		a := FromSlice(smallVec(seed, n), n)
		b := FromSlice(smallVec(seed+1, n), n)
		return math.Abs(Dot(a, b)) <= a.Norm2()*b.Norm2()+1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxRowsAreDistributions(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		r, c := int(rRaw%8)+1, int(cRaw%8)+2
		x := FromSlice(smallVec(seed, r*c), r, c)
		p := SoftmaxRows(x)
		for i := 0; i < r; i++ {
			s := 0.0
			for j := 0; j < c; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropIm2ColAdjoint(t *testing.T) {
	f := func(seed uint64, hRaw, wRaw uint8) bool {
		h, w := int(hRaw%6)+4, int(wRaw%6)+4
		g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
		rng := NewRNG(seed)
		x := New(1, 2, h, w)
		rng.FillNormal(x, 0, 1)
		cols := New(2*g.KH*g.KW, h*w) // stride 1, padding 1: oh, ow = h, w
		Im2ColInto(cols, x, g)
		y := New(cols.Dim(0), cols.Dim(1))
		rng.FillNormal(y, 0, 1)
		lhs := Dot(cols, y)
		rhs := Dot(x, Col2Im(y, 1, 2, h, w, g))
		return math.Abs(lhs-rhs) <= 1e-2*math.Max(1, math.Abs(lhs))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropRNGDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropRNGUniformInRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := rng.Range(-2, 3)
			if v < -2 || v >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(99)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := rng.Normal(1.5, 2.0)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-1.5) > 0.05 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-4.0) > 0.2 {
		t.Fatalf("normal variance %v", variance)
	}
}
