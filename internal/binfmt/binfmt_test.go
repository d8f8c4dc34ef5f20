package binfmt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestReaderWriterTable holds the codec to its rules, one case a row: each
// writes fields (or takes raw bytes), reads them back, and names the error
// End must report ("" for none) and the values the reads must return.
func TestReaderWriterTable(t *testing.T) {
	type row struct {
		name  string
		write func(w *Writer) // nil: the input is raw
		raw   []byte
		read  func(r *Reader) []any
		want  []any
		err   string
	}
	rows := []row{
		{
			name: "minimal varints round trip",
			write: func(w *Writer) {
				for _, v := range []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64} {
					w.Uvarint(v)
				}
			},
			read: func(r *Reader) []any {
				return []any{r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()}
			},
			want: []any{uint64(0), uint64(1), uint64(127), uint64(128), uint64(1 << 35), uint64(math.MaxUint64)},
		},
		{
			name: "padded varint",
			raw:  []byte{0x81, 0x00},
			read: func(r *Reader) []any { return []any{r.Uvarint()} },
			want: []any{uint64(0)},
			err:  "not minimally encoded",
		},
		{
			name: "padded zero",
			raw:  []byte{0x80, 0x80, 0x00},
			read: func(r *Reader) []any { return []any{r.Uvarint()} },
			want: []any{uint64(0)},
			err:  "not minimally encoded",
		},
		{
			name: "varint past 64 bits",
			raw:  []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
			read: func(r *Reader) []any { return []any{r.Uvarint()} },
			want: []any{uint64(0)},
			err:  "overflows 64 bits",
		},
		{
			name: "input ends inside a varint",
			raw:  []byte{0x80},
			read: func(r *Reader) []any { return []any{r.Uvarint()} },
			want: []any{uint64(0)},
			err:  "ends inside a varint",
		},
		{
			name: "zigzag extremes",
			write: func(w *Writer) {
				for _, v := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
					w.Varint(v)
				}
			},
			read: func(r *Reader) []any { return []any{r.Varint(), r.Varint(), r.Varint(), r.Varint()} },
			want: []any{int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(0)},
		},
		{
			name: "fixed fields round trip",
			write: func(w *Writer) {
				w.F64(math.Copysign(0, -1))
				w.F64(math.Inf(1))
				w.Flag(true)
				w.U8(0xfe)
				w.String("pacs", 4)
				w.Bytes([]byte{1, 2}, 2)
				w.Bytes(nil, 2)
			},
			read: func(r *Reader) []any {
				return []any{math.Float64bits(r.F64()), r.F64(), r.Flag(), r.U8(), r.String(4), r.Bytes(2), r.Bytes(2) == nil}
			},
			want: []any{uint64(1 << 63), math.Inf(1), true, byte(0xfe), "pacs", []byte{1, 2}, true},
		},
		{
			name:  "string one byte over its bound",
			write: func(w *Writer) { w.String("pacs", 4) },
			read:  func(r *Reader) []any { return []any{r.String(3)} },
			want:  []any{""},
			err:   "string of 4 bytes exceeds 3",
		},
		{
			name:  "byte field one byte over its bound",
			write: func(w *Writer) { w.Bytes([]byte("pacs"), 4) },
			read:  func(r *Reader) []any { return []any{r.Bytes(3) == nil} },
			want:  []any{true},
			err:   "byte field of 4 bytes exceeds 3",
		},
		{
			name: "count the bytes left can hold",
			raw:  append([]byte{2}, make([]byte, 16)...),
			read: func(r *Reader) []any { return []any{r.Count(2, 8), r.F64(), r.F64()} },
			want: []any{2, 0.0, 0.0},
		},
		{
			name: "count the bytes left cannot hold",
			raw:  append([]byte{2}, make([]byte, 15)...),
			read: func(r *Reader) []any { return []any{r.Count(2, 8)} },
			want: []any{0},
			err:  "count 2 exceeds its bound",
		},
		{
			name: "count above its bound",
			raw:  []byte{3, 0, 0, 0},
			read: func(r *Reader) []any { return []any{r.Count(2, 1)} },
			want: []any{0},
			err:  "count 3 exceeds its bound",
		},
		{
			name: "flag byte 2",
			raw:  []byte{2},
			read: func(r *Reader) []any { return []any{r.Flag()} },
			want: []any{false},
			err:  "flag byte 2",
		},
		{
			name: "the first error sticks",
			raw:  []byte{0x81, 0x00, 2, 5},
			read: func(r *Reader) []any {
				r.Uvarint() // padded
				return []any{r.Flag(), r.U8(), r.String(8), r.Rest() == nil}
			},
			want: []any{false, byte(0), "", true},
			err:  "not minimally encoded",
		},
		{
			name: "trailing bytes",
			raw:  []byte{1, 0},
			read: func(r *Reader) []any { return []any{r.U8()} },
			want: []any{byte(1)},
			err:  "1 bytes after the last field",
		},
		{
			name: "rest consumes what is left",
			raw:  []byte{1, 7, 8},
			read: func(r *Reader) []any { return []any{r.U8(), r.Rest()} },
			want: []any{byte(1), []byte{7, 8}},
		},
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			in := c.raw
			if c.write != nil {
				var w Writer
				c.write(&w)
				if err := w.Err(); err != nil {
					t.Fatalf("write: %v", err)
				}
				in = w.Buf
			}
			r := NewReader(in)
			got := c.read(&r)
			err := r.End()
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("End: %v", err)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Fatalf("End: %v, want an error containing %q", err, c.err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("read %d values, want %d", len(got), len(c.want))
			}
			for i := range got {
				if !same(got[i], c.want[i]) {
					t.Errorf("value %d = %#v, want %#v", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestWriterRefusesOversizedFields checks the writer applies the reader's
// bounds and keeps its first failure while later fields still append.
func TestWriterRefusesOversizedFields(t *testing.T) {
	var w Writer
	w.String("pacs", 3)
	w.Count(5, 4)
	w.Bytes(make([]byte, 5), 4)
	w.U8(9)
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "string of 4 bytes exceeds 3") {
		t.Fatalf("Err = %v, want the first failure, the string's", err)
	}
	if !bytes.Equal(w.Buf, []byte{9}) {
		t.Fatalf("Buf = %x, want only the field that fit", w.Buf)
	}
	w.Reset(w.Buf[:0])
	if w.Err() != nil || len(w.Buf) != 0 {
		t.Fatalf("Reset left error %v and %d bytes", w.Err(), len(w.Buf))
	}
}

func same(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}
