package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// magic identifies the on-disk tensor format ("LDT1" = lane-detection
// tensor, version 1).
const magic = 0x4C445431

// AppendHeader appends the header of an LDT1 record for a tensor of
// the given shape to b: magic, rank, then each dimension, all
// little-endian uint32. The payload follows as AppendFloats writes it.
func AppendHeader(b []byte, shape ...int) []byte {
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shape)))
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// AppendFloats appends v's bits to b as little-endian uint32 words,
// the payload of an LDT1 record. On a little-endian host those are
// v's bytes as they lie in memory, appended in one copy.
func AppendFloats(b []byte, v []float32) []byte {
	if nativeLE {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))...)
	}
	return appendFloatWords(b, v)
}

// appendFloatWords is AppendFloats a word at a time, on a host of
// either byte order.
func appendFloatWords(b []byte, v []float32) []byte {
	b = slices.Grow(b, 4*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

// nativeLE reports whether the host stores a uint32 little-endian.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendTo appends the tensor's LDT1 record (AppendHeader, then
// AppendFloats of its data) to b: the bytes WriteTo writes.
func (t *Tensor) AppendTo(b []byte) []byte {
	return AppendFloats(AppendHeader(b, t.shape...), t.Data)
}

// WriteTo serializes the tensor (shape + raw little-endian float32
// payload) to w. The format is stable and covered by round-trip tests.
// The record is encoded by AppendHeader and AppendFloats into one
// pooled fixed-size chunk and written a chunk at a time, so no call
// allocates in proportion to the tensor, nor at all once the pool
// holds a chunk.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	chunk := ioChunks.Get().(*[4096]byte)
	var n int64
	b := AppendHeader(chunk[:0], t.shape...)
	data := t.Data
	for {
		k := min(len(data), (len(chunk)-len(b))/4)
		if k > 0 {
			b, data = AppendFloats(b, data[:k]), data[k:]
		}
		m, err := w.Write(b)
		if n += int64(m); err != nil || len(data) == 0 {
			ioChunks.Put(chunk)
			return n, err
		}
		b = chunk[:0]
	}
}

// ioChunks holds WriteTo's encoding chunks.
var ioChunks = sync.Pool{New: func() any { return new([4096]byte) }}

// ReadFrom deserializes a tensor previously written with WriteTo.
// It reads exactly the serialized bytes (no read-ahead), so tensors can
// be streamed back-to-back from the same reader.
func ReadFrom(r io.Reader) (*Tensor, error) {
	br := r
	var m, nd uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("tensor: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("tensor: bad magic %#x (want %#x)", m, magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &nd); err != nil {
		return nil, fmt.Errorf("tensor: reading rank: %w", err)
	}
	if nd == 0 || nd > 8 {
		return nil, fmt.Errorf("tensor: implausible rank %d", nd)
	}
	shape := make([]int, nd)
	size := 1
	for i := range shape {
		var d uint32
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			return nil, fmt.Errorf("tensor: reading shape: %w", err)
		}
		if d == 0 || d > 1<<24 {
			return nil, fmt.Errorf("tensor: implausible dimension %d", d)
		}
		shape[i] = int(d)
		// Checked per axis, so the product cannot overflow.
		if size *= int(d); size > 1<<28 {
			return nil, fmt.Errorf("tensor: implausible element count %d", size)
		}
	}
	// Read the payload in bounded chunks: a forged shape header on a
	// short stream then allocates in proportion to the bytes that
	// arrive, not to the element count it claims.
	const chunk = 1 << 16
	data := make([]float32, 0, min(size, chunk))
	for n := 0; n < size; n = len(data) {
		data = append(data, make([]float32, min(size-n, chunk))...)
		if err := binary.Read(br, binary.LittleEndian, data[n:]); err != nil {
			return nil, fmt.Errorf("tensor: reading payload: %w", err)
		}
	}
	return &Tensor{Data: data, shape: shape}, nil
}
