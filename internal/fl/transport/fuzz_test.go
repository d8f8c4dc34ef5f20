package transport

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadFrame holds the frame reader to three properties on arbitrary
// bytes: it never panics; reading a frame allocates no more than the bytes
// supplied plus one frameChunk, whatever length the header declares, and
// decoding and re-encoding the body no more than a small multiple of it;
// and every
// frame it accepts re-encodes to the same bytes, so each message has exactly
// one encoding. The seed corpus under testdata/fuzz holds a frame of each
// message type, truncated bodies, oversized lengths, unknown types, a
// foreign version, and counts, strings, flags and varints past their
// bounds; it runs in ordinary `go test`.
func FuzzReadFrame(f *testing.F) {
	// slack absorbs the error values and whatever the fuzzing engine itself
	// allocates between two MemStats reads; it is small against a chunk.
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frameReader{r: bytes.NewReader(data)}
		var before, read, decoded runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, version, body, err := fr.next()
		runtime.ReadMemStats(&read)
		if alloc, bound := read.TotalAlloc-before.TotalAlloc, uint64(len(data)+frameChunk+slack); alloc > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}
		if err != nil || version != ProtocolVersion {
			return
		}
		re, err := reencode(typ, body)
		runtime.ReadMemStats(&decoded)
		if alloc, bound := decoded.TotalAlloc-read.TotalAlloc, uint64(16*len(body)+slack); alloc > bound {
			t.Fatalf("decoding a %d-byte %v body allocated %d, bound %d", len(body), typ, alloc, bound)
		}
		if err != nil {
			return
		}
		if in := data[:frameHeaderLen+len(body)]; !bytes.Equal(re, in) {
			t.Fatalf("accepted %v frame is not canonical:\n in %x\nout %x", typ, in, re)
		}
	})
}

// reencode decodes a frame body as its type and writes the message again.
func reencode(t msgType, body []byte) ([]byte, error) {
	var out bytes.Buffer
	fw := frameWriter{w: &out}
	var err error
	switch t {
	case msgHello:
		var h Hello
		if h, err = decodeHello(body); err == nil {
			err = fw.writeHello(h)
		}
	case msgHelloAck:
		var a HelloAck
		if a, err = decodeHelloAck(body); err == nil {
			err = fw.writeHelloAck(a)
		}
	case msgBroadcast:
		var b Broadcast
		if b, err = decodeBroadcast(body); err == nil {
			err = fw.writeBroadcast(&b, nil)
		}
	default:
		var u Update
		if u, err = decodeUpdate(t, body); err == nil {
			err = fw.writeUpdate(&u)
		}
	}
	return out.Bytes(), err
}

// TestFuzzSeedsCarryTheProtocolVersion keeps FuzzReadFrame's corpus live: a
// seed stamped with another version returns at the version check, so the
// body decoders behind it would go unfuzzed. Every seed but foreign-version,
// whose point is the other version, must carry ProtocolVersion.
func TestFuzzSeedsCarryTheProtocolVersion(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrame")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		if !ok || header != "go test fuzz v1" || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
			t.Fatalf("seed %s is not one []byte value", e.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		if len(data) < 6 {
			t.Fatalf("seed %s is too short to carry a version", e.Name())
		}
		v := int(binary.LittleEndian.Uint16([]byte(data[4:6])))
		if foreign := e.Name() == "foreign-version"; foreign == (v == ProtocolVersion) {
			t.Errorf("seed %s carries protocol v%d, ProtocolVersion is %d", e.Name(), v, ProtocolVersion)
		}
	}
}
