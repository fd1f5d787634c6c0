//go:build !retaincheck

package nn

// retained is the retained-input check's no-op default (see
// retain_check.go, built under the retaincheck tag).
type retained struct{}

func (*retained) keep([]float32) {}

func (*retained) check(string, []float32) {}
