package serve

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint, the
// decoder the fleet's failover path runs on stored checkpoints. No
// input may panic, any input it accepts must hold non-negative
// counters and a finite positive FPS, and it must re-encode to bytes
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
		st := c.state
		if c.Stream < 0 || c.Epoch < 0 || c.sinceAdapt < 0 || st.steps < 0 || st.opt.Step < 0 {
			t.Fatalf("accepted negative counters: stream %d epoch %d sinceAdapt %d steps %d optimizer step %d",
				c.Stream, c.Epoch, c.sinceAdapt, st.steps, st.opt.Step)
		}
		if !(c.FPS > 0 && c.FPS <= math.MaxFloat64) {
			t.Fatalf("accepted FPS %v", c.FPS)
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
