//go:build retaincheck

package ufld_test

// retainCheck reports a retaincheck build, whose convs copy every input
// they retain, so a live-heap bound of the default build does not hold.
const retainCheck = true
