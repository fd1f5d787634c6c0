package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ldbnadapt/internal/tensor"
)

// paramsMagic identifies the parameter-bundle format ("LDP1").
const paramsMagic = 0x4C445031

// AppendBundleHeader appends the header of an LDP1 bundle holding
// count records to b: magic, then count, little-endian uint32s.
func AppendBundleHeader(b []byte, count int) []byte {
	b = binary.LittleEndian.AppendUint32(b, paramsMagic)
	return binary.LittleEndian.AppendUint32(b, uint32(count))
}

// AppendRecordName appends the framing that opens one bundle record to
// b: the name's byte length as a little-endian uint32, then the name.
// The record's LDT1 tensor (tensor.AppendHeader and
// tensor.AppendFloats, or Tensor.WriteTo) follows it.
func AppendRecordName[S ~string | ~[]byte](b []byte, name S) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	return append(b, name...)
}

// SaveParams writes a named parameter bundle: every Param's Value plus
// the extras map (used for BN running statistics, which are state but
// not trainable parameters), extras in sorted name order. The bundle
// streams through one buffered writer, record by record, so no call
// holds a whole model's bytes.
func SaveParams(w io.Writer, params []*Param, extras map[string]*tensor.Tensor) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(AppendBundleHeader(nil, len(params)+len(extras))); err != nil {
		return err
	}
	var frame []byte
	writeOne := func(name string, t *tensor.Tensor) error {
		frame = AppendRecordName(frame[:0], name)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		_, err := t.WriteTo(bw)
		return err
	}
	for _, p := range params {
		if err := writeOne(p.Name, p.Value); err != nil {
			return fmt.Errorf("nn: saving %q: %w", p.Name, err)
		}
	}
	for _, kv := range sortedExtras(extras) {
		if err := writeOne(kv.name, kv.t); err != nil {
			return fmt.Errorf("nn: saving %q: %w", kv.name, err)
		}
	}
	return bw.Flush()
}

type namedTensor struct {
	name string
	t    *tensor.Tensor
}

// sortedExtras returns extras in deterministic (sorted) order.
func sortedExtras(extras map[string]*tensor.Tensor) []namedTensor {
	names := make([]string, 0, len(extras))
	for n := range extras {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := make([]namedTensor, len(names))
	for i, n := range names {
		out[i] = namedTensor{n, extras[n]}
	}
	return out
}

// LoadParams reads a parameter bundle into the given params (matched by
// name) and returns any entries that matched no param (the extras).
// Every param must be present in the bundle with a matching shape.
func LoadParams(r io.Reader, params []*Param) (map[string]*tensor.Tensor, error) {
	var m, count uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if m != paramsMagic {
		return nil, fmt.Errorf("nn: bad magic %#x", m)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("nn: reading count: %w", err)
	}
	byName := make(map[string]*Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	seen := make(map[string]bool, len(params))
	extras := make(map[string]*tensor.Tensor)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("nn: reading name length: %w", err)
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("nn: implausible name length %d", nameLen)
		}
		nb := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nb); err != nil {
			return nil, fmt.Errorf("nn: reading name: %w", err)
		}
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return nil, fmt.Errorf("nn: reading tensor %q: %w", nb, err)
		}
		name := string(nb)
		if p, ok := byName[name]; ok {
			if !p.Value.SameShape(t) {
				return nil, fmt.Errorf("nn: %q shape %v, want %v", name, t.Shape(), p.Value.Shape())
			}
			p.Value.CopyFrom(t)
			seen[name] = true
		} else {
			extras[name] = t
		}
	}
	for _, p := range params {
		if !seen[p.Name] {
			return nil, fmt.Errorf("nn: bundle is missing parameter %q", p.Name)
		}
	}
	return extras, nil
}
