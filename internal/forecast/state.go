package forecast

import "fmt"

// Checkpoint support: a durable stream checkpoint (internal/serve)
// must carry the stream's forecaster history across a board failure —
// a recovered stream whose forecaster restarts cold predicts zero load
// for its first epochs, which is exactly when the failover destination
// needs the demand signal most. AppendSnapshot and Restore flatten the
// built-in models to plain float64 state so any binary codec can carry
// them without knowing the model internals.

// AppendSnapshot extracts a built-in forecaster's full state for
// checkpointing: the model kind (its Name) and a flat state vector,
// appended to dst, that Restore can rebuild it from (five values hold
// every built-in model's state, so a caller can keep them in an array
// of its own). ok is false for forecaster implementations this package
// does not know — callers checkpoint nothing for those and restore a
// fresh model instead.
func AppendSnapshot(dst []float64, f Forecaster) (kind string, state []float64, ok bool) {
	switch v := f.(type) {
	case *Naive:
		return v.Name(), append(dst, v.last), true
	case *EWMA:
		return v.Name(), append(dst, v.Alpha, v.level, boolToF(v.seen)), true
	case *Holt:
		return v.Name(), append(dst, v.Alpha, v.Beta, v.level, v.trend, boolToF(v.seen)), true
	}
	return "", dst, false
}

// Restore rebuilds a forecaster from AppendSnapshot's kind and state.
// The kind selects the model and the state vector must have the exact
// length AppendSnapshot produced for it; anything else is a corrupt
// checkpoint.
func Restore(kind string, state []float64) (Forecaster, error) {
	switch kind {
	case "naive":
		if len(state) != 1 {
			return nil, fmt.Errorf("forecast: naive state has %d values, want 1", len(state))
		}
		return &Naive{last: state[0]}, nil
	case "ewma":
		if len(state) != 3 {
			return nil, fmt.Errorf("forecast: ewma state has %d values, want 3", len(state))
		}
		return &EWMA{Alpha: state[0], level: state[1], seen: state[2] != 0}, nil
	case "holt":
		if len(state) != 5 {
			return nil, fmt.Errorf("forecast: holt state has %d values, want 5", len(state))
		}
		return &Holt{Alpha: state[0], Beta: state[1], level: state[2], trend: state[3], seen: state[4] != 0}, nil
	}
	return nil, fmt.Errorf("forecast: unknown forecaster kind %q", kind)
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
