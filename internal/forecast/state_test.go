package forecast

import (
	"math"
	"testing"
)

// TestSnapshotRestoreRoundTrip drives each built-in model through a
// history, snapshots it, restores a copy, and checks the copy forecasts
// identically — both immediately and after further shared observations
// (i.e. the full internal state travelled, not just the last output).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	history := []float64{3, 7, 5, 12, 9}
	future := []float64{4, 11, 6}
	models := []Forecaster{NewNaive(), NewEWMA(0.3), NewHolt(0.5, 0.2)}
	for _, f := range models {
		for _, v := range history {
			f.Observe(v)
		}
		kind, state, ok := AppendSnapshot(nil, f)
		if !ok {
			t.Fatalf("%s: Snapshot not ok", f.Name())
		}
		if kind != f.Name() {
			t.Fatalf("%s: Snapshot kind %q", f.Name(), kind)
		}
		g, err := Restore(kind, state)
		if err != nil {
			t.Fatalf("%s: Restore: %v", f.Name(), err)
		}
		if g.Forecast() != f.Forecast() {
			t.Fatalf("%s: restored forecast %v != original %v", f.Name(), g.Forecast(), f.Forecast())
		}
		for _, v := range future {
			f.Observe(v)
			g.Observe(v)
			if g.Forecast() != f.Forecast() {
				t.Fatalf("%s: diverged after restore: %v != %v", f.Name(), g.Forecast(), f.Forecast())
			}
		}
	}
}

// TestSnapshotPreservesSeen pins the cold-start flag: a model that has
// seen exactly one observation must restore as seeded (next Observe
// smooths), not cold (next Observe re-seeds).
func TestSnapshotPreservesSeen(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	kind, state, _ := AppendSnapshot(nil, e)
	g, err := Restore(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(0)
	g.Observe(0)
	if want := 5.0; math.Abs(g.Forecast()-want) > 1e-12 || g.Forecast() != e.Forecast() {
		t.Fatalf("restored EWMA re-seeded: forecast %v, want %v", g.Forecast(), want)
	}
}

// TestRestoreRejectsCorruptState covers the corrupt-checkpoint paths.
func TestRestoreRejectsCorruptState(t *testing.T) {
	cases := []struct {
		kind  string
		state []float64
	}{
		{"naive", nil},
		{"ewma", []float64{1}},
		{"holt", []float64{1, 2, 3}},
		{"oracle", []float64{1}},
	}
	for _, c := range cases {
		if _, err := Restore(c.kind, c.state); err == nil {
			t.Fatalf("Restore(%q, %v) accepted corrupt state", c.kind, c.state)
		}
	}
}

// TestSnapshotUnknownForecaster: custom implementations are not
// snapshotable; callers must fall back to a fresh model.
func TestSnapshotUnknownForecaster(t *testing.T) {
	if _, _, ok := AppendSnapshot(nil, customForecaster{}); ok {
		t.Fatal("Snapshot claimed to handle an unknown forecaster")
	}
}

type customForecaster struct{}

func (customForecaster) Name() string      { return "custom" }
func (customForecaster) Observe(float64)   {}
func (customForecaster) Forecast() float64 { return 0 }
