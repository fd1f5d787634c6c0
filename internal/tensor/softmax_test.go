package tensor

import (
	"math"
	"testing"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(31)
	x := New(10, 7)
	rng.FillNormal(x, 0, 3)
	p := SoftmaxRows(x)
	for i := 0; i < 10; i++ {
		s := 0.0
		for j := 0; j < 7; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableUnderLargeLogits(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	p := SoftmaxRows(x)
	if p.HasNaN() {
		t.Fatal("softmax overflowed")
	}
	if p.At(0, 1) <= p.At(0, 0) || p.At(0, 0) <= p.At(0, 2) {
		t.Fatal("ordering not preserved")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := FromSlice([]float32{0.1, -0.7, 2.0}, 1, 3)
	y := AddScalar(x, 5)
	if !SoftmaxRows(x).AllClose(SoftmaxRows(y), 1e-6) {
		t.Fatal("softmax not shift-invariant")
	}
}

func TestRowEntropyBounds(t *testing.T) {
	// One-hot rows have zero entropy; uniform rows have log(c).
	c := 5
	oneHot := New(1, c)
	oneHot.Set(1, 0, 3)
	if h := RowEntropy(oneHot)[0]; h != 0 {
		t.Fatalf("one-hot entropy = %v", h)
	}
	uniform := Full(1.0/float32(c), 1, c)
	if h := RowEntropy(uniform)[0]; math.Abs(h-math.Log(float64(c))) > 1e-5 {
		t.Fatalf("uniform entropy = %v, want %v", h, math.Log(float64(c)))
	}
	// Any softmax output's entropy lies in [0, log c].
	rng := NewRNG(33)
	x := New(20, c)
	rng.FillNormal(x, 0, 4)
	for i, h := range RowEntropy(SoftmaxRows(x)) {
		if h < 0 || h > math.Log(float64(c))+1e-6 {
			t.Fatalf("row %d entropy %v out of bounds", i, h)
		}
	}
}

func TestUniformMaximizesEntropy(t *testing.T) {
	rng := NewRNG(34)
	c := 8
	maxH := math.Log(float64(c))
	x := New(50, c)
	rng.FillNormal(x, 0, 1)
	for _, h := range RowEntropy(SoftmaxRows(x)) {
		if h > maxH {
			t.Fatalf("entropy %v exceeds uniform bound %v", h, maxH)
		}
	}
}
