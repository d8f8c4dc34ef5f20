// Package checkpoint is the byte form of model state: a compact, versioned
// tensor-dict encoding (Marshal, Unmarshal), and the run snapshot built on it
// (SaveRunStateFile, LoadRunStateFile), so long federated runs (the
// paper-scale preset trains for hours on CPU) can be stopped and resumed.
// The dict form travels inside run snapshots and wire-state payloads; the
// run snapshot is the only file on disk, and the one a finished run leaves
// holds its final global model. Snapshots are written atomically (temp file
// + rename) and carry a checksum. Encoding streams through a small staging
// buffer; decoding parses the bytes in place, and every tensor entry on
// either side passes CheckEntry, the bounds the wire's packed deltas share.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"reffil/internal/binfmt"
	"reffil/internal/tensor"
)

// magic opens the tensor-dict form; the trailing digit is the format
// version.
var magic = [8]byte{'R', 'F', 'L', 'C', 'K', 'P', 'T', '1'}

// Bounds on one tensor entry, shared by this format and the wire's packed
// deltas (see CheckEntry): a corrupt or hostile header must never trigger a
// huge allocation.
const (
	// MaxNameLen bounds serialized tensor names.
	MaxNameLen = 4096
	// MaxDims bounds tensor rank.
	MaxDims = 16
	// MaxElems bounds a single tensor's element count (4M elems = 32 MiB):
	// a flipped dim byte must never trigger a multi-gigabyte allocation.
	MaxElems = 1 << 22
)

// CheckEntry checks one tensor entry against the bounds every tensor-dict
// form shares — a name of 1 to MaxNameLen bytes, a rank of at most MaxDims,
// no negative dim and at most MaxElems elements — and returns its element
// count. dim(i) is the size of axis i, so an encoder passes a tensor's Dim
// method and nothing is copied: the check allocates only when it fails.
func CheckEntry(name string, rank int, dim func(i int) int) (int, error) {
	if len(name) == 0 || len(name) > MaxNameLen {
		return 0, fmt.Errorf("invalid tensor name length %d", len(name))
	}
	if rank > MaxDims {
		return 0, fmt.Errorf("tensor %q has rank %d > %d", name, rank, MaxDims)
	}
	elems := 1
	for i := 0; i < rank; i++ {
		d := dim(i)
		if d < 0 || d > MaxElems {
			return 0, fmt.Errorf("tensor %q has invalid dim %d", name, d)
		}
		// Both factors are at most MaxElems, so the product cannot overflow.
		elems *= d
		if elems > MaxElems {
			return 0, fmt.Errorf("tensor %q exceeds the budget of %d elements", name, MaxElems)
		}
	}
	return elems, nil
}

// chunkBytes sizes the scratch buffer an encode stages its fixed-width
// fields and tensor data through: a tensor moves in chunks of chunkBytes/8
// elements, never one element per write.
const chunkBytes = 4 << 10

// writer is what the encoder needs of a stream; *bufio.Writer and
// *bytes.Buffer provide it.
type writer interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// writeFloats writes vs as little-endian Float64bits through scratch.
func writeFloats(w io.Writer, scratch []byte, vs []float64) error {
	for len(vs) > 0 {
		n := min(len(vs), len(scratch)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(scratch[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(scratch[:8*n]); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// Marshal encodes a state dict in one exactly-sized slice. Entries are
// sorted by name, so equal state encodes to equal bytes.
func Marshal(dict map[string]*tensor.Tensor) ([]byte, error) {
	return AppendMarshal(nil, dict)
}

// AppendMarshal appends the bytes Marshal would return to dst and returns
// the extended slice; when dst lacks the room, the new slice has exactly
// enough.
func AppendMarshal(dst []byte, dict map[string]*tensor.Tensor) ([]byte, error) {
	names, size, err := layout(dict)
	if err != nil {
		return nil, err
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	buf := bytes.NewBuffer(dst)
	if err := save(buf, dict, names); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// layout returns dict's names in encoding order and the size of its
// encoding, refusing any entry CheckEntry refuses before a byte is written.
func layout(dict map[string]*tensor.Tensor) ([]string, int, error) {
	names := make([]string, 0, len(dict))
	for name := range dict {
		names = append(names, name)
	}
	sort.Strings(names)
	size := len(magic) + 4
	for _, name := range names {
		t := dict[name]
		if _, err := CheckEntry(name, t.NDim(), t.Dim); err != nil {
			return nil, 0, fmt.Errorf("checkpoint: %w", err)
		}
		size += 2 + len(name) + 1 + 8*t.NDim() + 8*t.Size()
	}
	return names, size, nil
}

// save writes dict's entries in the order layout gave.
func save(w writer, dict map[string]*tensor.Tensor, names []string) error {
	if _, err := w.Write(magic[:]); err != nil {
		return fmt.Errorf("checkpoint: writing header: %w", err)
	}
	scratch := make([]byte, chunkBytes)
	binary.LittleEndian.PutUint32(scratch, uint32(len(names)))
	if _, err := w.Write(scratch[:4]); err != nil {
		return fmt.Errorf("checkpoint: writing count: %w", err)
	}
	for _, name := range names {
		t := dict[name]
		rank := t.NDim()
		binary.LittleEndian.PutUint16(scratch, uint16(len(name)))
		if _, err := w.Write(scratch[:2]); err != nil {
			return err
		}
		if _, err := w.WriteString(name); err != nil {
			return err
		}
		if err := w.WriteByte(byte(rank)); err != nil {
			return err
		}
		for i := 0; i < rank; i++ {
			binary.LittleEndian.PutUint64(scratch[8*i:], uint64(t.Dim(i)))
		}
		if _, err := w.Write(scratch[:8*rank]); err != nil {
			return err
		}
		if err := writeFloats(w, scratch, t.Data()); err != nil {
			return err
		}
	}
	return nil
}

// minEntry is the fewest bytes an entry takes: a one-byte name, then rank 0
// and its one element, or rank 1 and a zero dim.
const minEntry = 2 + 1 + 1 + 8

// Unmarshal decodes a state dict from the bytes Marshal produced, all of
// them, parsing b in place. Every size field is checked against the bounds
// and against the bytes left before anything is sized by it, names must
// ascend, and bytes after the last entry are an error, so whatever decodes
// re-encodes to b.
func Unmarshal(b []byte) (map[string]*tensor.Tensor, error) {
	r := binfmt.NewReader(b)
	head := r.Next(uint64(len(magic) + 4))
	if head == nil {
		return nil, fmt.Errorf("checkpoint: header: %w", r.Err())
	}
	if got := [8]byte(head); got != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint, or unsupported version)", got)
	}
	count := binary.LittleEndian.Uint32(head[len(magic):])
	if left := len(b) - len(head); uint64(count) > uint64(left/minEntry) {
		return nil, fmt.Errorf("checkpoint: %d entries cannot fit in %d bytes", count, left)
	}
	dict := make(map[string]*tensor.Tensor, count)
	prev := ""
	for i := range int(count) {
		var name string
		if n := r.Next(2); n != nil {
			name = string(r.Next(uint64(binary.LittleEndian.Uint16(n))))
		}
		rank := int(r.U8())
		dims := r.Next(uint64(8 * rank))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d: %w", i, err)
		}
		dim := func(d int) int { return int(binary.LittleEndian.Uint64(dims[8*d:])) }
		elems, err := CheckEntry(name, rank, dim)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d: %w", i, err)
		}
		// Marshal sorts, so equal state has exactly one encoding; an entry
		// out of order — a duplicate included — is not one Marshal wrote.
		if name <= prev {
			return nil, fmt.Errorf("checkpoint: entry %q after %q: names must ascend", name, prev)
		}
		prev = name
		data := r.Next(8 * uint64(elems))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %q data: %w", name, err)
		}
		var shape [MaxDims]int
		for d := range rank {
			shape[d] = dim(d)
		}
		t := tensor.New(shape[:rank]...)
		vs := t.Data()
		for j := range vs {
			vs[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
		}
		dict[name] = t
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("checkpoint: after the last entry: %w", err)
	}
	return dict, nil
}
