package tensor

import (
	"math"
	"testing"
)

// naiveMatMul is the reference implementation the fast kernel is
// checked against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-5) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(42)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 33, 9}, {65, 17, 40}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("MatMul mismatch at %v", dims)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := New(5, 5)
	rng.FillNormal(a, 0, 1)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(1, i, i)
	}
	if !MatMul(a, eye).AllClose(a, 1e-6) || !MatMul(eye, a).AllClose(a, 1e-6) {
		t.Fatal("identity law violated")
	}
}

func TestMatMulInto(t *testing.T) {
	rng := NewRNG(3)
	a, b := New(4, 6), New(6, 3)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	out := Full(99, 4, 3) // pre-polluted to verify zeroing
	MatMulInto(out, a, b)
	if !out.AllClose(MatMul(a, b), 1e-5) {
		t.Fatal("MatMulInto differs from MatMul")
	}
}

func TestMatMulTA(t *testing.T) {
	rng := NewRNG(5)
	a, b := New(7, 4), New(7, 6) // aᵀ·b : [4,6]
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	got := MatMulTA(a, b)
	want := MatMul(Transpose(a), b)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTA mismatch")
	}
}

func TestMatMulTB(t *testing.T) {
	rng := NewRNG(6)
	a, b := New(5, 8), New(9, 8) // a·bᵀ : [5,9]
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	got := New(5, 9)
	MatMulTBInto(got, a, b)
	want := MatMul(a, Transpose(b))
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTB mismatch")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(New(2, 3), New(4, 2)) },
		func() { MatMul(New(2), New(2, 2)) },
		func() { MatMulTA(New(3, 2), New(4, 2)) },
		func() { MatMulTBInto(New(2, 2), New(2, 3), New(2, 4)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMatMulAssociativity(t *testing.T) {
	rng := NewRNG(11)
	a, b, c := New(4, 5), New(5, 6), New(6, 3)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	rng.FillUniform(c, -1, 1)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if !left.AllClose(right, 1e-3) {
		t.Fatal("(ab)c != a(bc) beyond float tolerance")
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	rng := NewRNG(12)
	a, b, c := New(3, 4), New(4, 5), New(4, 5)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	rng.FillUniform(c, -1, 1)
	left := MatMul(a, Add(b, c))
	right := Add(MatMul(a, b), MatMul(a, c))
	if !left.AllClose(right, 1e-4) {
		t.Fatal("a(b+c) != ab+ac beyond float tolerance")
	}
}

func TestMatMulFloatStability(t *testing.T) {
	// Large-k accumulation should stay finite and accurate.
	k := 4096
	a, b := Ones(1, k), Full(0.001, k, 1)
	got := MatMul(a, b).At(0, 0)
	if math.Abs(float64(got)-4.096) > 1e-2 {
		t.Fatalf("accumulation drifted: %v", got)
	}
}

// TestGoRowKernelsCheckLength holds the Go row kernels — gemmRowGo and
// int8RowGo, and the wrappers, which are those kernels without the
// amd64 assembly (purego, other architectures) — to reading b only up
// to len(b): a b one element short of the last one read must panic
// even when its capacity reaches past it, in both addressing modes.
// Every coefficient is non-zero, so no row the Go kernels would skip
// hides the read. A b that ends exactly there is accepted.
func TestGoRowKernelsCheckLength(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	const ld = 150
	a := []float32{1, -2, 3, 0.5, 4}
	a8 := []int8{1, -2, 3, 5, 4}
	offs := []int{40, 7, 90, 12, 55} // the highest is not the last
	for _, n := range []int{3, 8, 20, 64, 130, 300} {
		for _, mode := range []struct {
			name string
			off  []int
			ld   int
			last int
		}{{"off", offs, 0, 90 + n - 1}, {"ld", nil, ld, (len(a)-1)*ld + n - 1}} {
			b := make([]float32, mode.last+1, mode.last+64)
			b8 := make([]int8, mode.last+1, mode.last+64)
			dst := make([]float32, n)
			for _, k := range []struct {
				name string
				run  func(b []float32, b8 []int8)
			}{
				{"gemmRowGo", func(b []float32, _ []int8) { gemmRowGo(dst, a, mode.off, mode.ld, b) }},
				{"int8RowGo", func(_ []float32, b8 []int8) { int8RowGo(dst, a8, mode.off, mode.ld, b8, 1) }},
				{"gemmRow", func(b []float32, _ []int8) { gemmRow(dst, a, mode.off, mode.ld, b) }},
				{"int8Row", func(_ []float32, b8 []int8) { int8Row(dst, a8, mode.off, mode.ld, b8, 1) }},
			} {
				if panics(func() { k.run(b, b8) }) {
					t.Fatalf("%s %s n=%d: b of %d elements panics, but reaches the last one read", k.name, mode.name, n, len(b))
				}
				if !panics(func() { k.run(b[:mode.last], b8[:mode.last]) }) {
					t.Fatalf("%s %s n=%d: read b[%d] of a %d-element b", k.name, mode.name, n, mode.last, mode.last)
				}
			}
		}
	}
}
