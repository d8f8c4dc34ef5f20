// Package binfmt is the field codec of the repository's hand-written binary
// formats: transport frame bodies, packed-delta key headers and run
// snapshots all write through a Writer and parse through a Reader, so one
// set of rules decides what each of them accepts.
//
// An unsigned integer is a little-endian base-128 varint, and a reader
// accepts only its minimal encoding, so every value has exactly one. A
// signed integer is zigzag-encoded first (binary.AppendVarint). A float64 is
// its 8 IEEE bits, little endian; a flag one byte, 0 or 1; a string or byte
// field a varint length followed by its bytes. Every length and count is
// bounded by its caller, and a reader checks a count against the bytes left
// before it sizes anything by it.
//
// Both sides keep the first failure, which Err (or End) reports: a Writer
// skips the field that failed, and a Reader's later calls return zero
// values. A format therefore lists its fields in order and checks once.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fields to Buf.
type Writer struct {
	Buf []byte
	err error
}

// Reset starts the writer over on buf, clearing its error.
func (w *Writer) Reset(buf []byte) { w.Buf, w.err = buf, nil }

// Err reports the first failure.
func (w *Writer) Err() error { return w.err }

// Fail records a failure unless one is already recorded.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

func (w *Writer) U8(v byte)        { w.Buf = append(w.Buf, v) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) F64(v float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v))
}

func (w *Writer) Flag(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String writes s, which must be at most max bytes long.
func (w *Writer) String(s string, max int) {
	if len(s) > max {
		w.Fail("string of %d bytes exceeds %d", len(s), max)
		return
	}
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Bytes writes b, which must be at most max bytes long.
func (w *Writer) Bytes(b []byte, max int) {
	if len(b) > max {
		w.Fail("byte field of %d bytes exceeds %d", len(b), max)
		return
	}
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Count writes an entry count, which must be at most max.
func (w *Writer) Count(n, max int) {
	if n > max {
		w.Fail("%d entries exceed %d", n, max)
		return
	}
	w.Uvarint(uint64(n))
}

// Reader reads fields in order from a byte slice. Byte fields alias it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports the first failure.
func (r *Reader) Err() error { return r.err }

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Next returns the next n bytes, or nil if fewer are left.
func (r *Reader) Next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Fail("field of %d bytes with %d left", n, len(r.b))
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *Reader) U8() byte {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads a varint, rejecting one longer than its value needs.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail("input ends inside a varint")
	case n < 0:
		r.Fail("varint overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.Fail("varint is not minimally encoded")
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *Reader) F64() float64 {
	if b := r.Next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *Reader) Flag() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("flag byte %d", v)
	}
	return v == 1
}

// String reads a string of at most max bytes.
func (r *Reader) String(max int) string {
	n := r.Uvarint()
	if n > uint64(max) {
		r.Fail("string of %d bytes exceeds %d", n, max)
		return ""
	}
	return string(r.Next(n))
}

// Bytes reads a byte field of at most max bytes, aliasing the input; an
// empty field is nil.
func (r *Reader) Bytes(max int) []byte {
	n := r.Uvarint()
	if n > uint64(max) {
		r.Fail("byte field of %d bytes exceeds %d", n, max)
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.Next(n)
}

// Count reads an entry count, rejecting one above max or one the bytes left
// cannot hold at minLen (at least 1) bytes an entry.
func (r *Reader) Count(max, minLen int) int {
	n := r.Uvarint()
	if n > uint64(max) || n > uint64(len(r.b)/minLen) {
		r.Fail("count %d exceeds its bound", n)
		return 0
	}
	return int(n)
}

// Rest returns every byte not yet read and consumes them; nil after a
// failure.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b
	r.b = nil
	return v
}

// End reports the first failure, or bytes left after the last field.
func (r *Reader) End() error {
	if len(r.b) > 0 {
		r.Fail("%d bytes after the last field", len(r.b))
	}
	return r.err
}
