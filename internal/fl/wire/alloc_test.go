package wire

import (
	"runtime"
	"testing"
)

// These gates pin the pooled steady state of the packed-delta hot path:
// once the plane buffers and DEFLATE coder state are warm, packDelta
// allocates only the output byte buffer it hands to the caller, and a
// DecodeBuffer not even the decoded tensors — never the 8×N plane scratch
// (64 B/element) or a fresh ~1 MB flate.Writer. GOMAXPROCS is pinned to 1
// so internal/parallel helper bookkeeping doesn't blur the counts, and
// race-instrumented builds skip the gates (the race runtime adds its own
// per-call allocations; the functional pack tests still run under -race).

func TestPackDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are calibrated for uninstrumented builds")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	base, next, keys := benchDicts(8, 4096)
	if _, err := packDelta(nil, base, next, keys); err != nil { // warm the pools
		t.Fatal(err)
	}
	// Output bytes.Buffer growth doublings + the span table + the fan-out
	// closure. 8 keys × 4096 elements is 256 KiB of planes — pre-pool this
	// path was ~270 KiB and a ~1.2 MB flate.Writer per call.
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
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
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
