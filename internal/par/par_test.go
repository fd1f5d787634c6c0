package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// markBody records which band processed each item.
type markBody struct {
	owner []int32
}

func (b *markBody) Chunk(band, lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.StoreInt32(&b.owner[i], int32(band+1))
	}
}

// withProcs runs f under the given GOMAXPROCS, restoring it after.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestForCoversEveryItemOnce checks the partition invariant at worker
// counts around and past the item count, including prime sizes and
// n < workers.
func TestForCoversEveryItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 3, 7, 13, 64, 101} {
			withProcs(t, procs, func() {
				b := &markBody{owner: make([]int32, n)}
				For(n, 1, b)
				for i, o := range b.owner {
					if o == 0 {
						t.Fatalf("procs=%d n=%d: item %d never processed", procs, n, i)
					}
				}
				// Bands must be contiguous: owner changes at most
				// Width-1 times and band ids are ≤ Width.
				w := int32(Width(n, 1))
				changes := 0
				for i := 1; i < n; i++ {
					if b.owner[i] != b.owner[i-1] {
						changes++
					}
					if b.owner[i] > w {
						t.Fatalf("procs=%d n=%d: band id %d exceeds width %d", procs, n, b.owner[i], w)
					}
				}
				if changes >= int(w) {
					t.Fatalf("procs=%d n=%d: %d band transitions for width %d", procs, n, changes, w)
				}
			})
		}
	}
}

// TestWidthClamps pins the band-count formula the shard-sizing in nn
// relies on.
func TestWidthClamps(t *testing.T) {
	withProcs(t, 8, func() {
		if w := Width(100, 1); w != 8 {
			t.Fatalf("Width(100,1) at 8 procs = %d, want 8", w)
		}
		if w := Width(3, 1); w != 3 {
			t.Fatalf("Width(3,1) = %d, want 3 (n < procs)", w)
		}
		if w := Width(100, 40); w != 2 {
			t.Fatalf("Width(100,40) = %d, want 2 (minPer clamp)", w)
		}
		if w := Width(5, 100); w != 1 {
			t.Fatalf("Width(5,100) = %d, want 1", w)
		}
	})
	withProcs(t, 1, func() {
		if w := Width(1000, 1); w != 1 {
			t.Fatalf("Width at GOMAXPROCS 1 = %d, want 1", w)
		}
	})
}

type sumBody struct {
	src []float64
	// per-band partial sums, far apart to avoid false-sharing noise.
	part [MaxWorkers]float64
}

func (b *sumBody) Chunk(band, lo, hi int) {
	s := 0.0
	for _, v := range b.src[lo:hi] {
		s += v
	}
	b.part[band] = s
}

// TestNestedAndConcurrentFor hammers the pool from many client
// goroutines with nested For calls — the shape of a fleet's boards
// stepping in parallel — under the race detector (make race includes
// this package).
func TestNestedAndConcurrentFor(t *testing.T) {
	withProcs(t, 4, func() {
		src := make([]float64, 1000)
		want := 0.0
		for i := range src {
			src[i] = float64(i % 17)
			want += src[i]
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < 50; it++ {
					outer := &nestedBody{src: src}
					For(4, 1, outer)
					got := 0.0
					for _, q := range outer.quarter {
						got += q
					}
					if got != want {
						t.Errorf("nested sum = %v, want %v", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

type nestedBody struct {
	src     []float64
	quarter [4]float64
}

func (b *nestedBody) Chunk(_, lo, hi int) {
	for q := lo; q < hi; q++ {
		inner := &sumBody{src: b.src[q*250 : (q+1)*250]}
		For(250, 16, inner) // nested: may find no free workers
		s := 0.0
		for _, p := range inner.part {
			s += p
		}
		b.quarter[q] = s
	}
}

// TestNoGoroutineLeak pins the pool's persistence model: workers are
// spawned once up to the GOMAXPROCS cap and then reused — thousands of
// For calls add no goroutines beyond that bound.
func TestNoGoroutineLeak(t *testing.T) {
	withProcs(t, 4, func() {
		b := &sumBody{src: make([]float64, 4096)}
		For(len(b.src), 64, b) // spawn up to the cap
		runtime.Gosched()
		base := runtime.NumGoroutine()
		for i := 0; i < 2000; i++ {
			For(len(b.src), 64, b)
		}
		// Workers park between calls; give any in-flight done-handoff a
		// moment before counting.
		time.Sleep(10 * time.Millisecond)
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("goroutines grew %d → %d across 2000 For calls", base, got)
		}
	})
}

// TestForSteadyStateAllocFree pins the zero-allocation contract at
// GOMAXPROCS > 1. testing.AllocsPerRun forces GOMAXPROCS to 1 (which
// would bypass the pool), so this measures Mallocs directly.
func TestForSteadyStateAllocFree(t *testing.T) {
	withProcs(t, 4, func() {
		b := &sumBody{src: make([]float64, 8192)}
		cache := &Cache[sumBody]{}
		work := func() {
			tb := cache.Get()
			tb.src = b.src
			For(len(tb.src), 64, tb)
			tb.src = nil
			cache.Put(tb)
		}
		for i := 0; i < 10; i++ {
			work() // warmup: spawn workers, fill the cache high-water
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 200
		for i := 0; i < runs; i++ {
			work()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.Mallocs-before.Mallocs) / runs; per > 0.05 {
			t.Fatalf("steady-state For allocates %.2f objects per call, want 0", per)
		}
	})
}

// TestCacheRecycles pins Cache's grow-to-high-water behaviour.
func TestCacheRecycles(t *testing.T) {
	var c Cache[int]
	a := c.Get()
	c.Put(a)
	if b := c.Get(); b != a {
		t.Fatal("Cache did not recycle the returned block")
	}
}
