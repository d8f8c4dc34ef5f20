package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzUnmarshal holds the parser to three properties on arbitrary bytes: it
// never panics; it allocates no more than memory proportional to the input,
// since each tensor's data is checked against the bytes left before the
// tensor is allocated; and whatever it accepts is the canonical encoding,
// so re-encoding the decoded dict gives the input back byte for byte. The
// seed corpus (the golden bytes, and under testdata/fuzz the inputs that
// once broke the last property) runs in ordinary `go test`.
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
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<20); got > bound {
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

// FuzzLoadRunState holds the run-state parser to FuzzUnmarshal's three
// properties: it never panics; it allocates no more than memory
// proportional to the input; and whatever it accepts is canonical, so
// SaveRunState writes it back byte for byte.
// Each input is a snapshot without its checksum trailer, and the fuzz
// function appends the right one: otherwise nearly every mutation would die
// at the checksum and the parser behind it would go unfuzzed. The seeds are
// a valid snapshot, the snapshot cut short, one whose dataset name is a byte
// past MaxNameLen, one with a byte appended, and a header that declares a
// maxPayload-byte payload and ends; under testdata/fuzz is an RFLRUN02
// input, once the one that made that format's parser allocate a declared
// payload up front and accept a payload flag other than 0 or 1, which must
// now fail at its magic.
func FuzzLoadRunState(f *testing.F) {
	var snapshot bytes.Buffer
	if err := SaveRunState(&snapshot, sampleRunState(rand.New(rand.NewSource(18)))); err != nil {
		f.Fatal(err)
	}
	valid := snapshot.Bytes()[:snapshot.Len()-crc32.Size]
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	oversized := append([]byte(nil), runMagic[:]...)
	oversized = append(oversized, 1, 'm')
	oversized = binary.AppendUvarint(oversized, MaxNameLen+1)
	oversized = append(oversized, bytes.Repeat([]byte("x"), MaxNameLen+1)...)
	f.Add(oversized)
	f.Add(append(append([]byte(nil), valid...), 0))
	// Method "m", no dataset or scale, seed 0, position (0, 0), no matrix
	// rows, then a payload flag and a payload length of maxPayload with no
	// bytes behind.
	missing := append([]byte(nil), runMagic[:]...)
	missing = append(missing, 1, 'm', 0, 0, 0, 0, 0, 0, 1)
	missing = binary.AppendUvarint(missing, maxPayload)
	f.Add(missing)
	f.Fuzz(func(t *testing.T, body []byte) {
		b := sealed(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, err := LoadRunState(b)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<20); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), got, bound)
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := SaveRunState(&re, rs); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), b) {
			t.Fatalf("accepted input is not canonical:\n in %x\nout %x", b, re.Bytes())
		}
	})
}

// sealed returns body followed by its run-state checksum trailer.
func sealed(body []byte) []byte {
	return binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}
