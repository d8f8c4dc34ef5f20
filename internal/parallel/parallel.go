// Package parallel fans the wire codec's two sweeps over a whole state
// dict — the significance planes and the per-key change scan — out over
// the cores, and pools per-call scratch buffers (ScratchPool). The tensor
// kernels, the FedAvg fold and the rest of a client's training run on the
// goroutine that calls them: the client pool (fl.LocalRunner) is the one
// level of parallelism there.
//
// Work over an index range is split into contiguous chunks that run on a
// bounded set of helper goroutines:
//
//   - Determinism: chunks are disjoint, and each output index is produced by
//     exactly one chunk using the same inner loop order as the serial code,
//     so results are bit-for-bit identical at any worker count (including
//     fully serial execution).
//   - Bounded concurrency: helper goroutines are drawn from a global token
//     pool sized to the processor count. A nested region, or one that finds
//     the pool drained, runs serially instead of oversubscribing the
//     machine.
package parallel

import (
	"runtime"
	"sync"
)

// tokens is the global helper budget: one slot per hardware processor
// beyond the calling goroutine. Sizing by NumCPU (fixed for the process
// lifetime) rather than GOMAXPROCS keeps the pool usable if GOMAXPROCS is
// raised later; the live GOMAXPROCS value still caps each For call, so
// lowering it (as the serial benchmarks do) disables fan-out immediately.
// Acquisition is non-blocking, so a caller that finds the pool drained
// simply runs its loop serially.
var tokens = make(chan struct{}, maxHelpers())

func maxHelpers() int {
	n := runtime.NumCPU() - 1
	if g := runtime.GOMAXPROCS(0) - 1; g > n {
		n = g
	}
	if n < 0 {
		n = 0
	}
	return n
}

// DefaultChunkOps is the scalar-operation budget below which a chunk of
// work is not worth a goroutine; GrainForCost derives a loop's grain from
// it.
const DefaultChunkOps = 1 << 15

// For runs body over the half-open range [0, n), splitting it into at most
// ceil(n/grain) contiguous chunks executed concurrently. body(lo, hi) must
// handle any sub-range independently: chunks never overlap and every index
// is covered exactly once. grain is the minimum chunk size — the serial
// fallback threshold below which spawning a goroutine costs more than the
// work it would carry.
//
// The calling goroutine always participates, so For(n, grain, body) with no
// free helper tokens is exactly body(0, n).
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	maxWorkers := (n + grain - 1) / grain
	if p := runtime.GOMAXPROCS(0); maxWorkers > p {
		maxWorkers = p
	}
	helpers := 0
	for helpers < maxWorkers-1 {
		select {
		case tokens <- struct{}{}:
			helpers++
			continue
		default:
		}
		break
	}
	if helpers == 0 {
		body(0, n)
		return
	}
	runChunks(n, helpers, true, body)
}

// runChunks splits [0,n) into helpers+1 contiguous chunks and runs them on
// the calling goroutine plus helpers spawned goroutines. When release is
// set, each spawned goroutine returns one pool token on completion. Kept
// separate from For so tests can drive concurrent chunking directly even on
// machines whose token pool is empty (single-CPU containers).
func runChunks(n, helpers int, release bool, body func(lo, hi int)) {
	workers := helpers + 1
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			// ceil division can leave trailing workers without work.
			if release {
				<-tokens
			}
			continue
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if release {
				defer func() { <-tokens }()
			}
			body(lo, hi)
		}(lo, hi)
	}
	body(0, chunk)
	wg.Wait()
}

// GrainForCost converts a per-item cost estimate (in scalar operations) into
// a chunk grain such that each chunk carries at least minChunkOps work, so
// that small ranges stay on the calling goroutine.
func GrainForCost(perItemOps, minChunkOps int) int {
	if perItemOps <= 0 {
		perItemOps = 1
	}
	g := minChunkOps / perItemOps
	if g < 1 {
		g = 1
	}
	return g
}
