package main

import "time"

// The reference box is a shared VM whose speed drifts by tens of
// percent over minutes — single-threaded code included — and whose
// second core is at times barely available. To keep a run comparable
// with the next, the harness measures that speed itself: a small fixed
// kernel of its own, never part of the program under test, is timed
// next to every op, set-up and probe, and every duration the benchmark
// reports is scaled by what the kernel took against calibNominalMs.
// Timings therefore read as ms on a box where the kernel takes exactly
// that long, which is this box when it is quiet. The kernel makes one
// serial pass and one pass split with a helper goroutine, because the
// workloads are a mix of both and the two kinds of code slow down at
// different times.

// calibNominalMs is what the kernel takes on the quiet reference box.
const calibNominalMs = 3.0

const calibN = 88 // the kernel multiplies two calibN×calibN matrices

const calibReps = 3 // ... this many times per pass

// calibrator owns the kernel's buffers and its helper goroutine, so
// timing the kernel allocates nothing.
type calibrator struct {
	a, b, c  []float32
	work     chan [2]int // row range for the helper
	done     chan struct{}
	finished chan struct{} // closed when the helper has exited
}

func newCalibrator() *calibrator {
	k := &calibrator{
		a:        make([]float32, calibN*calibN),
		b:        make([]float32, calibN*calibN),
		c:        make([]float32, calibN*calibN),
		work:     make(chan [2]int),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	for i := range k.a {
		k.a[i], k.b[i] = float32(i%7)-3, float32(i%5)-2
	}
	go func() {
		defer close(k.finished)
		for r := range k.work {
			k.rows(r[0], r[1])
			k.done <- struct{}{}
		}
	}()
	return k
}

// stop ends the helper goroutine and waits for it.
func (k *calibrator) stop() {
	close(k.work)
	<-k.finished
}

// rows computes rows [lo, hi) of the product, calibReps times over.
func (k *calibrator) rows(lo, hi int) {
	for r := 0; r < calibReps; r++ {
		for i := lo; i < hi; i++ {
			out := k.c[i*calibN : (i+1)*calibN]
			for j := range out {
				out[j] = 0
			}
			for p := 0; p < calibN; p++ {
				aip := k.a[i*calibN+p]
				row := k.b[p*calibN : (p+1)*calibN]
				for j := range out {
					out[j] += aip * row[j]
				}
			}
		}
	}
}

// sample times the kernel once and returns its host ms: a serial pass,
// then two passes whose halves run on the caller and the helper.
func (k *calibrator) sample() float64 {
	t0 := time.Now()
	k.rows(0, calibN)
	for pass := 0; pass < 2; pass++ {
		k.work <- [2]int{0, calibN / 2}
		k.rows(calibN/2, calibN)
		<-k.done
	}
	return float64(time.Since(t0)) / 1e6
}

// steady is the median of n back-to-back samples, for the places where
// one sample has to stand for seconds of work.
func (k *calibrator) steady(n int) float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = k.sample()
	}
	return median(s)
}

// speed turns the kernel times measured before and after some work
// into the factor that work's host time is multiplied by: below 1 when
// the box was slower than the reference while it ran.
func speed(before, after float64) float64 {
	if m := (before + after) / 2; m > 0 {
		return calibNominalMs / m
	}
	return 1
}
