package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 4099} {
		for _, grain := range []int{1, 3, 64, 5000} {
			hits := make([]int32, n)
			For(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", n, grain, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d covered %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestForSerialBelowGrain(t *testing.T) {
	calls := 0
	For(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected one full chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("small range split into %d chunks, want 1", calls)
	}
}

func TestForNoWorkNoCalls(t *testing.T) {
	For(0, 1, func(lo, hi int) { t.Fatal("body called for empty range") })
	For(-3, 1, func(lo, hi int) { t.Fatal("body called for negative range") })
}

// TestForDeterministicSum checks the documented determinism contract on a
// floating-point reduction: per-index results must be bit-identical no
// matter how the range is chunked or how many processors are available.
func TestForDeterministicSum(t *testing.T) {
	const n = 513
	serial := make([]float64, n)
	work := func(out []float64) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for j := 1; j <= 100; j++ {
					s += 1 / float64(i*j+1)
				}
				out[i] = s
			}
		}
	}
	work(serial)(0, n)
	for _, grain := range []int{1, 7, 100} {
		got := make([]float64, n)
		For(n, grain, work(got))
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("grain %d: index %d differs from serial result", grain, i)
			}
		}
	}
}

func TestForNested(t *testing.T) {
	// Nested regions must not deadlock or lose coverage even when the token
	// pool is exhausted.
	outer := make([]int32, 8)
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var inner int32
			For(100, 10, func(l, h int) {
				atomic.AddInt32(&inner, int32(h-l))
			})
			if inner != 100 {
				t.Errorf("nested region covered %d of 100", inner)
			}
			atomic.AddInt32(&outer[i], 1)
		}
	})
	for i, h := range outer {
		if h != 1 {
			t.Fatalf("outer index %d covered %d times", i, h)
		}
	}
}

// TestRunChunksConcurrent drives the chunk splitter directly with forced
// helper counts, so the concurrent code path (goroutine spawning, disjoint
// chunk writes, the trailing-worker release branch) is exercised and
// race-checked even on single-CPU machines whose token pool is empty.
func TestRunChunksConcurrent(t *testing.T) {
	for _, helpers := range []int{1, 3, 7} {
		for _, n := range []int{1, 2, 8, 513} {
			hits := make([]int32, n)
			runChunks(n, helpers, false, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("helpers=%d n=%d: bad chunk [%d,%d)", helpers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("helpers=%d n=%d: index %d covered %d times", helpers, n, i, h)
				}
			}
		}
	}
}

// TestRunChunksDeterministicAtAnyHelperCount pins the chunking-invariance
// claim with real concurrency: per-index floating-point results must be
// bit-identical whether the range runs serially or across many goroutines.
func TestRunChunksDeterministicAtAnyHelperCount(t *testing.T) {
	const n = 257
	work := func(out []float64) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for j := 1; j <= 200; j++ {
					s += 1 / float64(i*j+1)
				}
				out[i] = s
			}
		}
	}
	serial := make([]float64, n)
	work(serial)(0, n)
	for _, helpers := range []int{1, 4, 16} {
		got := make([]float64, n)
		runChunks(n, helpers, false, work(got))
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("helpers=%d: index %d differs from serial result", helpers, i)
			}
		}
	}
}

func TestGrainForCost(t *testing.T) {
	if g := GrainForCost(10, 1000); g != 100 {
		t.Fatalf("GrainForCost(10, 1000) = %d, want 100", g)
	}
	if g := GrainForCost(0, 1000); g < 1 {
		t.Fatalf("zero-cost grain %d, want >= 1", g)
	}
	if g := GrainForCost(5000, 1000); g != 1 {
		t.Fatalf("expensive-item grain %d, want 1", g)
	}
}

func TestForUsesMultipleGoroutinesWhenAvailable(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-processor environment: helper pool is empty by design")
	}
	var peak int32
	var cur int32
	For(1<<16, 1, func(lo, hi int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		for i := lo; i < hi; i++ {
			_ = i * i
		}
		atomic.AddInt32(&cur, -1)
	})
	if peak < 2 {
		t.Logf("peak concurrency %d (timing-dependent; not a failure)", peak)
	}
}
