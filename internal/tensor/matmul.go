package tensor

import (
	"fmt"

	"ldbnadapt/internal/par"
)

// Parallel gates, in multiply-accumulate counts (m·k·n). Below the
// gate a kernel runs serially on the caller: band dispatch costs two
// channel operations and a free-list round trip per helper (~1 µs
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
// ROADMAP item 6(a) owns the re-derivation). Vars, not
// consts, so the cross-kernel bitwise property suite can lower them
// and exercise banding on adversarial small shapes.
var (
	matmulParMin = 1 << 19 // all four float GEMM variants
	int8ParMin   = 1 << 19 // int8 GEMM variants (int8_test lowers it too)
)

// gemmTask is the pooled argument block for every float GEMM variant:
// op selects the row/column kernel, the slices alias caller storage
// for the duration of one par.For call. at is MatMulTAInto's transpose
// of a, owned by the block and grown to the largest seen.
type gemmTask struct {
	op      int
	dst     []float32
	a, b    []float32
	at      []float32
	m, k, n int
}

const (
	opMMRows = iota // matmulInto, banded over dst rows
	opMMCols        // matmulInto, banded over dst columns (small m)
	opTBRows        // MatMulTBInto, banded over dst rows
	opTBCols        // MatMulTBInto, banded over dst columns
)

func (t *gemmTask) Chunk(_, lo, hi int) {
	switch t.op {
	case opMMRows:
		matmulRows(t.dst, t.a, t.b, lo, hi, t.k, t.n)
	case opMMCols:
		matmulCols(t.dst, t.a, t.b, t.m, t.k, t.n, lo, hi)
	case opTBRows:
		matmulTBRows(t.dst, t.a, t.b, t.k, t.n, lo, hi, 0, t.n)
	case opTBCols:
		matmulTBRows(t.dst, t.a, t.b, t.k, t.n, 0, t.m, lo, hi)
	}
}

var gemmCache par.Cache[gemmTask]

// runGEMM dispatches one banded GEMM over the pool: items is the
// banded axis extent (rows or columns). The task block is recycled
// through a free list so steady-state calls allocate nothing.
func runGEMM(op, items, minPer int, dst, a, b []float32, m, k, n int) {
	t := gemmCache.Get()
	t.op, t.dst, t.a, t.b, t.m, t.k, t.n = op, dst, a, b, m, k, n
	par.For(items, minPer, t)
	t.dst, t.a, t.b = nil, nil, nil
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
	matmulInto(out.Data, a.Data, b.Data, m, k, n)
}

// matmulInto computes dst = a·b (dst fully overwritten), one output
// row at a time through the row kernel (gemmRow), whose inner loop
// streams over contiguous rows of b and dst. Banding is over dst rows
// — or dst columns when m is too small to feed the pool — so each
// output element's accumulation order is the serial kernel's
// regardless of worker count.
func matmulInto(dst, a, b []float32, m, k, n int) {
	if m*k*n < matmulParMin {
		matmulRows(dst, a, b, 0, m, k, n)
		return
	}
	if m >= 2*par.Width(m, 1) {
		runGEMM(opMMRows, m, 1, dst, a, b, m, k, n)
	} else {
		// Few tall rows (e.g. the n=1 linear backward dX): band the
		// output columns instead; 16 floats = one cache line per
		// boundary, so adjacent bands never share a line.
		runGEMM(opMMCols, n, 16, dst, a, b, m, k, n)
	}
}

// matmulRows computes rows [lo,hi) of dst = a·b.
func matmulRows(dst, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		gemmRow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n)
	}
}

// matmulCols computes columns [jlo,jhi) of every row of dst = a·b.
// Per output element the p-accumulation order matches matmulRows.
func matmulCols(dst, a, b []float32, m, k, n, jlo, jhi int) {
	for i := 0; i < m; i++ {
		gemmRow(dst[i*n+jlo:i*n+jhi], a[i*k:(i+1)*k], b[jlo:], n)
	}
}

// gemmRowGo is the row kernel every a·b product reduces to, and the
// spec the assembly mirrors: di[j] = Σ_p ai[p]·b[p·ldb+j], each sum
// starting from +0 and taking p in increasing order, zero ai[p]
// skipped. ldb is b's row stride — len(di) for a whole row, the full
// row width when di is a column band.
func gemmRowGo(di, ai, b []float32, ldb int) {
	clear(di)
	n := len(di)
	for p, av := range ai {
		if av == 0 {
			continue
		}
		axpyRow(di, b[p*ldb:p*ldb+n], av)
	}
}

// gemmRowOffGo is gemmRowGo with the rows of b named by an offset
// table instead of a stride, and the spec of its assembly twin:
// di[j] = Σ_p ai[p]·b[off[p]+j], each sum starting from +0 and taking
// p in increasing order, zero ai[p] skipped. With off[p] = p·ldb it is
// gemmRowGo bit for bit; ConvInto points the rows into a padded
// input plane, so a convolution needs no im2col slab.
func gemmRowOffGo(di, ai []float32, off []int, b []float32) {
	clear(di)
	n := len(di)
	for p, av := range ai {
		if av == 0 {
			continue
		}
		o := off[p]
		axpyRow(di, b[o:o+n], av)
	}
}

// axpyRow computes di += av*bp with 4-way unrolling: one coefficient's
// update in the Go row kernels.
func axpyRow(di, bp []float32, av float32) {
	n := len(di)
	i := 0
	for ; i+4 <= n; i += 4 {
		di[i] += av * bp[i]
		di[i+1] += av * bp[i+1]
		di[i+2] += av * bp[i+2]
		di[i+3] += av * bp[i+3]
	}
	for ; i < n; i++ {
		di[i] += av * bp[i]
	}
}

// MatMulTAInto computes out = aᵀ·b reusing out's storage ([k,m]ᵀ·[k,n]
// → [m,n]). It transposes a into a buffer of its pooled task block,
// then runs matmulInto over it, so each row accumulates its rank-1
// updates in increasing p from +0 with ±0 coefficients skipped — the
// order a k-outer walk of a would take — at any worker count. The
// buffer grows to the largest a seen, so a steady-state call allocates
// nothing. out must not alias a or b.
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
	matmulInto(out.Data, t.at, b.Data, m, k, n)
	gemmCache.Put(t)
}

// MatMulTBInto computes out = a·bᵀ reusing out's storage ([m,k]·[n,k]ᵀ
// → [m,n]), banding over output rows when the batch dimension m can
// feed the pool and over output columns otherwise (the m∈{1..4}
// adaptation batches). Every element is overwritten; out must not
// alias a or b.
func MatMulTBInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTBInto shape mismatch %v = %v × %vᵀ", out.shape, a.shape, b.shape))
	}
	if m*k*n < matmulParMin {
		matmulTBRows(out.Data, a.Data, b.Data, k, n, 0, m, 0, n)
		return
	}
	if m >= 2*par.Width(m, 1) {
		runGEMM(opTBRows, m, 1, out.Data, a.Data, b.Data, m, k, n)
	} else {
		runGEMM(opTBCols, n, 16, out.Data, a.Data, b.Data, m, k, n)
	}
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
