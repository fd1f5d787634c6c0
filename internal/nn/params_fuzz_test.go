package nn_test

import (
	"bytes"
	"testing"

	"ldbnadapt/internal/nn"
	"ldbnadapt/internal/resnet"
	"ldbnadapt/internal/tensor"
	"ldbnadapt/internal/ufld"
)

// FuzzLoadParams feeds arbitrary bytes to LoadParams, the reader of the
// weights file ldtrain writes and ldadapt and ldserve load, with a Tiny
// detector's parameters as the destination. No input may panic, and
// any input it accepts must re-save to bytes that load and re-save to
// the same bytes.
func FuzzLoadParams(f *testing.F) {
	m := ufld.MustNewModel(ufld.Tiny(resnet.R18, 2), tensor.NewRNG(5))
	var seed bytes.Buffer
	if err := nn.SaveParams(&seed, m.Params(), m.BNStateExtras()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	params := m.Params()
	f.Fuzz(func(t *testing.T, data []byte) {
		extras, err := nn.LoadParams(bytes.NewReader(data), params)
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := nn.SaveParams(&once, params, extras); err != nil {
			t.Fatalf("accepted bundle does not save: %v", err)
		}
		again, err := nn.LoadParams(bytes.NewReader(once.Bytes()), params)
		if err != nil {
			t.Fatalf("re-saved bundle does not load: %v", err)
		}
		if err := nn.SaveParams(&twice, params, again); err != nil {
			t.Fatalf("reloaded bundle does not save: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-save is not stable: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}
