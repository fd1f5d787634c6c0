package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// magic identifies the on-disk tensor format ("LDT1" = lane-detection
// tensor, version 1).
const magic = 0x4C445431

// WriteTo serializes the tensor (shape + raw little-endian float32
// payload) to w. The format is stable and covered by round-trip tests.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(magic)); err != nil {
		return n, err
	}
	if err := write(uint32(len(t.shape))); err != nil {
		return n, err
	}
	for _, d := range t.shape {
		if err := write(uint32(d)); err != nil {
			return n, err
		}
	}
	if err := write(t.Data); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

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
