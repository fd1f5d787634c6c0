package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// matmulParMin is the parallel gate of every float and int8 GEMM and
// conv kernel, in multiply-accumulate counts (m·k·n). Below the gate a
// kernel runs serially on the caller: band dispatch costs two channel
// operations and a free-list round trip per helper (~1 µs
// uncontended, a scheduler switch when GOMAXPROCS exceeds physical
// cores), so shapes whose whole product runs in that budget must not
// pay it. 1<<19 MACs ≈ 340 µs of serial GEMM through the Go kernel
// on the reference container; tuned empirically — at 1<<16 the many
// small conv layers of the Tiny model made the oversubscribed -cpu 4
// forward measurably slower than -cpu 1, at 1<<19 it is flat within
// noise while every heavy layer (≥10⁷ MACs) still bands (see the
// parallel-kernel-model section of PERFORMANCE.md). Through the AVX2
// kernel the same gate is only ≈ 40 µs of work; it was deliberately
// not retuned with the kernel (PERFORMANCE.md has the measurement,
// ROADMAP item 6(a) owns the re-derivation). A var, not a const, so
// the cross-kernel bitwise property suite can lower it and exercise
// banding on adversarial small shapes.
var matmulParMin = 1 << 19

// gemmBlock is one float GEMM layout's kernel: rows [ilo,ihi) ×
// columns [jlo,jhi) of dst = a·b (matmulRows) or a·bᵀ (matmulTBRows).
type gemmBlock func(dst, a, b []float32, k, n, ilo, ihi, jlo, jhi int)

// gemmTask is the pooled argument block of both float GEMM layouts:
// block is the layout, cols the banded axis (dst columns, else rows),
// and the slices alias caller storage for the duration of one par.For
// call. at is MatMulTAInto's transpose of a, owned by the block and
// grown to the largest seen.
type gemmTask struct {
	block   gemmBlock
	cols    bool
	dst     []float32
	a, b    []float32
	at      []float32
	m, k, n int
}

func (t *gemmTask) Chunk(_, lo, hi int) {
	if t.cols {
		t.block(t.dst, t.a, t.b, t.k, t.n, 0, t.m, lo, hi)
	} else {
		t.block(t.dst, t.a, t.b, t.k, t.n, lo, hi, 0, t.n)
	}
}

var gemmCache par.Cache[gemmTask]

// runGEMM computes the whole [m,n] dst through block, the one banding
// decision of both layouts: serially on the caller below the gate,
// otherwise over dst rows when m can feed the pool, else over dst
// columns (few tall rows, as in Linear's n=1 backward dX or the
// m∈{1..4} adaptation batches), 16 floats = one cache line per
// boundary so adjacent bands never share a line. Every element is one
// call of the layout's kernel, so its sum is the serial one at any
// worker count. The task block is recycled through a free list, so
// steady-state calls allocate nothing.
func runGEMM(block gemmBlock, dst, a, b []float32, m, k, n int) {
	if m*k*n < matmulParMin {
		block(dst, a, b, k, n, 0, m, 0, n)
		return
	}
	t := gemmCache.Get()
	t.block, t.dst, t.a, t.b, t.m, t.k, t.n = block, dst, a, b, m, k, n
	t.cols = m < 2*par.Width(m, 1)
	if t.cols {
		par.For(n, 16, t)
	} else {
		par.For(m, 1, t)
	}
	t.block, t.dst, t.a, t.b = nil, nil, nil, nil
	gemmCache.Put(t)
}

// MatMulInto computes out = a·b, reusing out's storage. Shapes must
// already agree; out must not alias a or b. Every element of out is
// written (the kernel zeroes each output band before accumulating).
func MatMulInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v = %v × %v", out.shape, a.shape, b.shape))
	}
	runGEMM(matmulRows, out.Data, a.Data, b.Data, m, k, n)
}

// matmulRows computes rows [ilo,ihi) × columns [jlo,jhi) of dst = a·b,
// one row at a time through the row kernel with b's rows n apart, whose
// inner loop streams over contiguous runs of b and dst.
func matmulRows(dst, a, b []float32, k, n, ilo, ihi, jlo, jhi int) {
	for i := ilo; i < ihi; i++ {
		gemmRow(dst[i*n+jlo:i*n+jhi], a[i*k:(i+1)*k], nil, n, b[jlo:])
	}
}

// gemmRowGo is the float row kernel MatMulInto, MatMulTAInto, ConvInto
// and ConvDXInto reduce to, and the spec the assembly mirrors: di[j] =
// Σ_p ai[p]·b[o_p+j] with o_p = off[p], or p·ld when off is nil (as in
// int8RowGo), each sum starting from +0 and taking p in increasing
// order, zero ai[p] skipped, four columns per unrolled step. The a·b
// products and ConvDXInto name b's rows by a stride — the full row
// width, also when di is a column band; ConvInto names them by its
// offset table into the padded input planes, so a convolution needs no
// im2col slab. The two modes agree bit for bit where off[p] = p·ld.
func gemmRowGo(di, ai []float32, off []int, ld int, b []float32) {
	clear(di)
	n := len(di)
	for p, av := range ai {
		if av == 0 {
			continue
		}
		o := p * ld
		if off != nil {
			o = off[p]
		}
		bp := b[o : o+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			di[j] += av * bp[j]
			di[j+1] += av * bp[j+1]
			di[j+2] += av * bp[j+2]
			di[j+3] += av * bp[j+3]
		}
		for ; j < n; j++ {
			di[j] += av * bp[j]
		}
	}
}

// MatMulTAInto computes out = aᵀ·b reusing out's storage ([k,m]ᵀ·[k,n]
// → [m,n]). It transposes a into a buffer of its pooled task block,
// then runs MatMulInto's kernel over it, so each row accumulates its
// rank-1 updates in increasing p from +0 with ±0 coefficients skipped
// — the order a k-outer walk of a would take — at any worker count.
// The buffer grows to the largest a seen, so a steady-state call
// allocates nothing. out must not alias a or b.
func MatMulTAInto(out, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTAInto shape mismatch %v = %vᵀ × %v", out.shape, a.shape, b.shape))
	}
	t := gemmCache.Get()
	t.at = resize(t.at, m*k)
	for p := 0; p < k; p++ {
		for i, v := range a.Data[p*m : (p+1)*m] {
			t.at[i*k+p] = v
		}
	}
	runGEMM(matmulRows, out.Data, t.at, b.Data, m, k, n)
	gemmCache.Put(t)
}

// MatMulTBInto computes out = a·bᵀ reusing out's storage ([m,k]·[n,k]ᵀ
// → [m,n]), banded as runGEMM decides. Every element is overwritten;
// out must not alias a or b.
func MatMulTBInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTBInto shape mismatch %v = %v × %vᵀ", out.shape, a.shape, b.shape))
	}
	runGEMM(matmulTBRows, out.Data, a.Data, b.Data, m, k, n)
}

// matmulTBRows is the one a·bᵀ kernel: rows [ilo,ihi) × columns
// [jlo,jhi) of out. Each output element is one self-contained dot
// product, so any row/column banding yields bitwise-identical results.
func matmulTBRows(dst, a, b []float32, k, n, ilo, ihi, jlo, jhi int) {
	for i := ilo; i < ihi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := dst[i*n : (i+1)*n]
		for j := jlo; j < jhi; j++ {
			oi[j] = dotUnroll4(ai, b[j*k:(j+1)*k], k)
		}
	}
}

// dotUnroll4 is MatMulTBInto's 4-way-unrolled dot product and the
// oracle of ConvDWAcc's lane kernel (dwLanesGo), whose lanes each run
// this chain. The grouping — one chain from +0 gaining
// ((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃ per four elements, then one product
// per leftover — is load-bearing: it is the historical a·bᵀ
// accumulation order, which the seeded report pins depend on bitwise.
func dotUnroll4(a, b []float32, k int) float32 {
	s := float32(0)
	p := 0
	for ; p+4 <= k; p += 4 {
		s += a[p]*b[p] + a[p+1]*b[p+1] + a[p+2]*b[p+2] + a[p+3]*b[p+3]
	}
	for ; p < k; p++ {
		s += a[p] * b[p]
	}
	return s
}
