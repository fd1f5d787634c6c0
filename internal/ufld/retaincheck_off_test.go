//go:build !retaincheck

package ufld_test

// retainCheck reports a retaincheck build (see retaincheck_on_test.go).
const retainCheck = false
