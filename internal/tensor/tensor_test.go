package tensor

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.NDim() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFullOnesFill(t *testing.T) {
	x := Full(2.5, 3)
	for _, v := range x.Data {
		if v != 2.5 {
			t.Fatalf("Full: got %v", v)
		}
	}
	y := Ones(2, 2)
	if y.Sum() != 4 {
		t.Fatalf("Ones sum = %v", y.Sum())
	}
	y.Fill(7)
	if y.Sum() != 28 {
		t.Fatalf("Fill sum = %v", y.Sum())
	}
	y.Zero()
	if y.Sum() != 0 {
		t.Fatalf("Zero sum = %v", y.Sum())
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(1, 2) != 6 || x.At(0, 2) != 3 {
		t.Fatalf("At wrong: %v", x)
	}
	x.Set(9, 1, 0)
	if x.At(1, 0) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSameShape(t *testing.T) {
	a, b, c := New(2, 3), New(2, 3), New(3, 2)
	if !a.SameShape(b) || a.SameShape(c) || a.SameShape(New(6)) {
		t.Fatal("SameShape wrong")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b); !got.AllClose(FromSlice([]float32{5, 7, 9}, 3), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.AllClose(FromSlice([]float32{3, 3, 3}, 3), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(a, 2); !got.AllClose(FromSlice([]float32{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := AddScalar(a, 1); !got.AllClose(FromSlice([]float32{2, 3, 4}, 3), 0) {
		t.Fatalf("AddScalar = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	AddInPlace(a, FromSlice([]float32{10, 20}, 2))
	if !a.AllClose(FromSlice([]float32{11, 22}, 2), 0) {
		t.Fatalf("AddInPlace = %v", a)
	}
	AxpyInPlace(a, 2, FromSlice([]float32{1, 1}, 2))
	if !a.AllClose(FromSlice([]float32{13, 24}, 2), 0) {
		t.Fatalf("AxpyInPlace = %v", a)
	}
	ScaleInPlace(a, 0.5)
	if !a.AllClose(FromSlice([]float32{6.5, 12}, 2), 0) {
		t.Fatalf("ScaleInPlace = %v", a)
	}
}

func TestMismatchedBinaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Add(New(2), New(3))
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1.75 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("Max/Min = %v/%v", x.Max(), x.Min())
	}
	mean, std := x.MeanStd()
	if math.Abs(mean-1.75) > 1e-9 || math.Abs(std-1.920286) > 1e-5 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := FromSlice([]float32{1, 2, 2}, 3)
	b := FromSlice([]float32{2, 0, 1}, 3)
	if Dot(a, b) != 4 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if a.Norm2() != 3 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !at.AllClose(want, 0) {
		t.Fatalf("Transpose = %v", at)
	}
	// Double transpose is identity.
	if !Transpose(at).AllClose(a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestAllCloseAndHasNaN(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0005, 2}, 2)
	if !a.AllClose(b, 1e-3) || a.AllClose(b, 1e-5) {
		t.Fatal("AllClose tolerance handling wrong")
	}
	if a.AllClose(New(3), 1) {
		t.Fatal("AllClose must reject size mismatch")
	}
	n := FromSlice([]float32{float32(math.NaN())}, 1)
	if !n.HasNaN() || a.HasNaN() {
		t.Fatal("HasNaN wrong")
	}
	inf := FromSlice([]float32{float32(math.Inf(1))}, 1)
	if !inf.HasNaN() {
		t.Fatal("HasNaN must flag Inf")
	}
	if n.AllClose(n, 1) {
		t.Fatal("AllClose must reject NaN")
	}
}

func TestStringTruncates(t *testing.T) {
	s := New(100).String()
	if len(s) == 0 || len(s) > 120 {
		t.Fatalf("String length %d", len(s))
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	x := New(3, 5, 2)
	rng.FillNormal(x, 0, 1)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	y, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if !x.SameShape(y) || !x.AllClose(y, 0) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestAtSetAllocationFree pins that the variadic element accessors do
// not heap-allocate their index slice: every pixel pass of the CARLANE
// renderer goes through them.
func TestAtSetAllocationFree(t *testing.T) {
	x := New(3, 4, 5)
	allocs := testing.AllocsPerRun(100, func() {
		x.Set(x.At(2, 3, 4)+1, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("At+Set allocate %.1f times, want 0", allocs)
	}
}

// TestReadFromForgedShape pins that a header claiming the largest
// accepted tensor (2^28 elements, 1 GiB) over an empty payload fails
// after allocating about one read chunk, that a shape whose element
// count overflows int is rejected, and that a payload spanning several
// chunks still round-trips.
func TestReadFromForgedShape(t *testing.T) {
	header := func(words ...uint32) []byte {
		var b bytes.Buffer
		for _, v := range append([]uint32{magic}, words...) {
			b.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		return b.Bytes()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(header(2, 1<<14, 1<<14)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged header with no payload accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("forged header allocated %d bytes, want <= 4 MiB", grew)
	}
	// 2^24 · 2^24 · 2^24 · 2^16 = 2^88 wraps a 64-bit product to 0.
	if _, err := ReadFrom(bytes.NewReader(header(4, 1<<24, 1<<24, 1<<24, 1<<16))); err == nil {
		t.Fatal("shape with an overflowing element count accepted")
	}

	x := New(3, 70001)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadFrom(&buf)
	if err != nil || !x.SameShape(y) || !x.AllClose(y, 0) {
		t.Fatalf("multi-chunk round trip: err %v", err)
	}
}
