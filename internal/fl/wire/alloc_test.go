package wire

import (
	"runtime"
	"testing"

	"reffil/internal/tensor"
)

// These gates pin the pooled steady state of the packed-delta hot path:
// once the plane buffers and DEFLATE coder state are warm, packDelta and
// unpackDelta allocate only what they must hand to the caller — the output
// byte buffer on pack, the per-key decoded tensors on unpack — never the
// 8×N plane scratch (64 B/element before this PR) or a fresh ~1 MB
// flate.Writer. GOMAXPROCS is pinned to 1 so internal/parallel helper
// bookkeeping doesn't blur the counts, and race-instrumented builds skip
// the gates (the race runtime adds its own per-call allocations; the
// functional pack tests still run under -race).

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
	out := make(map[string]*tensor.Tensor, len(keys))
	if err := unpackDelta(base, packed, out); err != nil { // warm the pools
		t.Fatal(err)
	}
	// Per-key decoded tensors (the result — 8 keys × {struct, data, shape}),
	// the key/span tables and the listed-twice set, and the decompressor's per-dynamic-block Huffman
	// tables (flate-internal, scales with the stream's block count, ~60 for
	// this payload); the name buffer is reused across keys and the plane
	// buffer is pooled. Pre-pool this path also allocated the 8×N plane
	// scratch (256 KiB here) and a fresh flate reader per call.
	const maxAllocs = 150
	if allocs := testing.AllocsPerRun(20, func() {
		for k := range out {
			delete(out, k)
		}
		if err := unpackDelta(base, packed, out); err != nil {
			t.Fatal(err)
		}
	}); allocs > maxAllocs {
		t.Errorf("unpackDelta steady state: %v allocs/op, want <= %d (planes and flate state must come from the pools)", allocs, maxAllocs)
	}
}
