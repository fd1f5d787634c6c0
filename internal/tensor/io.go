package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// magic identifies the on-disk tensor format ("LDT1" = lane-detection
// tensor, version 1).
const magic = 0x4C445431

// WriteTo serializes the tensor (shape + raw little-endian float32
// payload) to w. The format is stable and covered by round-trip tests.
// The header and payload are encoded into one pooled fixed-size chunk
// and written a chunk at a time, so no call allocates in proportion to
// the tensor, nor at all once the pool holds a chunk.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	chunk := ioChunks.Get().(*[4096]byte)
	var n int64
	b := chunk[:0]
	// put appends words to b, writing b out each time it fills.
	put := func(words int, word func(i int) uint32) error {
		for i := 0; i < words; i++ {
			if len(b) == len(chunk) {
				m, err := w.Write(b)
				n += int64(m)
				if err != nil {
					return err
				}
				b = chunk[:0]
			}
			b = binary.LittleEndian.AppendUint32(b, word(i))
		}
		return nil
	}
	err := put(2+len(t.shape), func(i int) uint32 {
		switch i {
		case 0:
			return magic
		case 1:
			return uint32(len(t.shape))
		}
		return uint32(t.shape[i-2])
	})
	if err == nil {
		err = put(len(t.Data), func(i int) uint32 { return math.Float32bits(t.Data[i]) })
	}
	if err == nil {
		var m int
		m, err = w.Write(b)
		n += int64(m)
	}
	ioChunks.Put(chunk)
	return n, err
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
