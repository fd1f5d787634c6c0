package serve

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint, the
// decoder the fleet's failover path runs on stored checkpoints. No
// input may panic, and any input it accepts must re-encode to bytes
// that decode and re-encode to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("testdata/checkpoint_v2.ldp1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	e := New(testModel(91), migrationConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := e.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := EncodeCheckpoint(&once, c); err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := e.DecodeCheckpoint(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if err := EncodeCheckpoint(&twice, again); err != nil {
			t.Fatalf("re-decoded checkpoint does not encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encode is not stable: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}
