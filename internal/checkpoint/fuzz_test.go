package checkpoint

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// FuzzUnmarshal holds the parser to three properties on arbitrary bytes: it
// never panics; it allocates no more than the header bounds allow — one
// tensor of at most maxElems elements whose data turns out to be missing,
// beyond memory proportional to the input; and whatever it accepts is the
// canonical encoding, so re-encoding the decoded dict gives the input back
// byte for byte. The seed corpus (the golden bytes, and under
// testdata/fuzz the inputs that once broke the last property) runs in
// ordinary `go test`.
func FuzzUnmarshal(f *testing.F) {
	golden, err := hex.DecodeString(goldenHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	// Two scalar entries, "b" before "a": well-formed but for the order.
	unsorted := append(append([]byte(nil), magic[:]...), 2, 0, 0, 0)
	for _, name := range []byte{'b', 'a'} {
		unsorted = append(unsorted, 1, 0, name, 0)
		unsorted = append(unsorted, make([]byte, 8)...)
	}
	f.Add(unsorted)
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dict, err := Unmarshal(b)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*maxElems+64*len(b)+1<<20); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), got, bound)
		}
		if err != nil {
			return
		}
		re, err := Marshal(dict)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted input is not canonical:\n in %x\nout %x", b, re)
		}
	})
}
