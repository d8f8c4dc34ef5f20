package wire

import (
	"runtime"
	"testing"
)

// These gates pin the pooled steady state of the packed-delta hot path:
// once the plane buffers and DEFLATE coder state are warm, packDelta
// allocates only the output byte buffer it hands to the caller, and a
// DecodeBuffer not even the decoded tensors — never the 8×N plane scratch
// (64 B/element) or a fresh ~1 MB flate.Writer. Race-instrumented builds
// skip the gates (the race runtime adds its own per-call allocations; the
// functional pack tests still run under -race).

func TestPackDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are calibrated for uninstrumented builds")
	}
	base, next, keys := benchDicts(8, 4096)
	if _, err := packDelta(nil, base, next, keys); err != nil { // warm the pools
		t.Fatal(err)
	}
	// Output bytes.Buffer growth doublings + the span table. 8 keys × 4096
	// elements is 256 KiB of planes — pre-pool this path was ~270 KiB and a
	// ~1.2 MB flate.Writer per call.
	const maxAllocs = 30
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := packDelta(nil, base, next, keys); err != nil {
			t.Fatal(err)
		}
	}); allocs > maxAllocs {
		t.Errorf("packDelta steady state: %v allocs/op, want <= %d (planes and flate state must come from the pools)", allocs, maxAllocs)
	}
}

// TestUnpackDeltaSteadyStateAllocs gates decoding by bytes: once a
// DecodeBuffer has decoded the payload, decoding it again writes into the
// buffer's tensors, so what is left is the header bookkeeping (key and span
// tables, names, shapes, the listed-twice set) and the decompressor's
// per-dynamic-block Huffman tables — a few KiB. The 256 KiB of decoded
// tensors a fresh decode allocates for this payload, or the 256 KiB plane
// scratch without the pool, would each break the gate.
func TestUnpackDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are calibrated for uninstrumented builds")
	}
	base, next, keys := benchDicts(8, 4096)
	packed, err := packDelta(nil, base, next, keys)
	if err != nil {
		t.Fatal(err)
	}
	p := &Patch{Packed: packed}
	var buf DecodeBuffer
	if _, err := buf.Decode(base, p); err != nil { // warm the pools and the buffer
		t.Fatal(err)
	}
	const runs, maxBytes = 20, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := buf.Decode(base, p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("DecodeBuffer.Decode of 8 × 4096 elements: %d B/op", got)
	if got >= maxBytes {
		t.Errorf("DecodeBuffer.Decode steady state: %d B/op, want < %d (the decoded tensors must be the buffer's, planes and flate state the pools')", got, maxBytes)
	}
}

// TestPlaneSweepsAllocateNothing: at the default GOMAXPROCS, the plane
// sweeps allocate nothing and changedKeys only the slice it returns — each
// runs on the goroutine that calls it. (testing.AllocsPerRun would pin
// GOMAXPROCS to 1, so MemStats counts here.) The sweeps run over 3·2,730+5
// elements in spans of 1 to 7, enough to cross several plane blocks.
func TestPlaneSweepsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are calibrated for uninstrumented builds")
	}
	const runs = 100
	spans, out, total := planeLayout(shortSpans(3*2730 + 5))
	planes := make([]byte, 8*total)
	if n := mallocs(runs, func() { shufflePlanes(planes, spans, total) }); n != 0 {
		t.Errorf("shufflePlanes: %d allocations per call, want 0", n)
	}
	if n := mallocs(runs, func() { unshufflePlanes(planes, out, total) }); n != 0 {
		t.Errorf("unshufflePlanes: %d allocations per call, want 0", n)
	}

	base, next, keys := benchDicts(64, 256)
	for _, k := range keys[:32] {
		next[k] = base[k].Clone()
	}
	var changed []string
	if n := mallocs(runs, func() { changed = changedKeys(keys, base, next) }); n > 1 {
		t.Errorf("changedKeys: %d allocations per call, want at most 1 (its result)", n)
	}
	if len(changed) != 32 {
		t.Errorf("changedKeys found %d changed keys, want 32", len(changed))
	}
}

// mallocs returns the heap allocations per call of f, counted over runs
// calls. Above one P the runtime makes a few objects of its own now and then
// (up to 8 in one window at -cpu 2 and 4), so the count starts after a
// collection and is averaged over enough calls that those round away.
func mallocs(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}
