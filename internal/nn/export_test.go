package nn

// SetSlotPolicy swaps the rule a plan picks a free slot by (see
// pickSlot) for the tests of package nn_test, and returns a func that
// restores it.
func SetSlotPolicy(pick func(free []int, n int) int) (restore func()) {
	old := pickSlot
	pickSlot = pick
	return func() { pickSlot = old }
}
