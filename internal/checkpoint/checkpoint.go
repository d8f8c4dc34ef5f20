// Package checkpoint is the byte form of model state: a compact, versioned
// tensor-dict encoding (Save, Marshal), and the run snapshot built on it
// (SaveRunStateFile), so long federated runs (the paper-scale preset trains
// for hours on CPU) can be stopped and resumed. The dict form travels inside
// run snapshots and wire-state payloads; the run snapshot is the only file
// on disk, and the one a finished run leaves holds its final global model.
// Snapshots are written atomically (temp file + rename) and carry a
// checksum.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"reffil/internal/tensor"
)

// magic identifies checkpoint files; the trailing digit is the format
// version.
var magic = [8]byte{'R', 'F', 'L', 'C', 'K', 'P', 'T', '1'}

// Bounds on one tensor entry, shared by this format and the wire's packed
// deltas: a corrupt or hostile header must never trigger a huge allocation.
const (
	// MaxNameLen bounds serialized tensor names.
	MaxNameLen = 4096
	// MaxDims bounds tensor rank.
	MaxDims = 16
	// MaxElems bounds a single tensor's element count (4M elems = 32 MiB):
	// a flipped dim byte must never trigger a multi-gigabyte allocation.
	MaxElems = 1 << 22
)

// chunkBytes sizes the scratch buffer every encode or decode call stages its
// header fields and tensor data through: a tensor moves in chunks of
// chunkBytes/8 elements, never one element per I/O call. A name is the
// largest header field, so the buffer is exactly that long.
const chunkBytes = MaxNameLen

// writer and reader are what the format needs of a stream; *bufio.Writer and
// *bytes.Buffer, *bufio.Reader and *bytes.Reader provide them.
type writer interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

type reader interface {
	io.Reader
	io.ByteReader
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

// readFloats fills dst from little-endian Float64bits read through scratch.
func readFloats(r io.Reader, scratch []byte, dst []float64) error {
	for len(dst) > 0 {
		n := min(len(dst), len(scratch)/8)
		if _, err := io.ReadFull(r, scratch[:8*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[8*i:]))
		}
		dst = dst[n:]
	}
	return nil
}

// Save writes a state dict to w. Entries are sorted by name so the output
// is deterministic for identical state.
func Save(w io.Writer, dict map[string]*tensor.Tensor) error {
	bw := bufio.NewWriter(w)
	if err := save(bw, dict, sortedNames(dict)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flushing: %w", err)
	}
	return nil
}

// Marshal returns the bytes Save would write, in one exactly-sized slice.
func Marshal(dict map[string]*tensor.Tensor) ([]byte, error) {
	return AppendMarshal(nil, dict)
}

// AppendMarshal appends the bytes Save would write to dst and returns the
// extended slice; when dst lacks the room, the new slice has exactly enough.
func AppendMarshal(dst []byte, dict map[string]*tensor.Tensor) ([]byte, error) {
	names := sortedNames(dict)
	size := len(magic) + 4
	for _, name := range names {
		t := dict[name]
		size += 2 + len(name) + 1 + 8*t.NDim() + 8*t.Size()
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

func sortedNames(dict map[string]*tensor.Tensor) []string {
	names := make([]string, 0, len(dict))
	for name := range dict {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

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
		if len(name) == 0 || len(name) > MaxNameLen {
			return fmt.Errorf("checkpoint: invalid tensor name length %d", len(name))
		}
		t := dict[name]
		rank := t.NDim()
		if rank > MaxDims {
			return fmt.Errorf("checkpoint: tensor %q has rank %d > %d", name, rank, MaxDims)
		}
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

// Load reads a state dict from r to its end, validating the header and
// every size field before allocating: bytes after the last entry are an
// error.
func Load(r io.Reader) (map[string]*tensor.Tensor, error) {
	return loadAll(bufio.NewReader(r))
}

// Unmarshal decodes a state dict from the bytes Marshal or Save produced,
// all of them, as Load does.
func Unmarshal(b []byte) (map[string]*tensor.Tensor, error) {
	return loadAll(bytes.NewReader(b))
}

// loadAll is load followed by a check that r is exhausted, so a dict has
// exactly one encoding and a file with anything appended is not a checkpoint.
func loadAll(r reader) (map[string]*tensor.Tensor, error) {
	dict, err := load(r)
	if err != nil {
		return nil, err
	}
	switch _, err := r.ReadByte(); err {
	case io.EOF:
		return dict, nil
	case nil:
		return nil, fmt.Errorf("checkpoint: bytes after the last entry")
	default:
		return nil, fmt.Errorf("checkpoint: reading past the last entry: %w", err)
	}
}

func load(r reader) (map[string]*tensor.Tensor, error) {
	scratch := make([]byte, chunkBytes)
	if _, err := io.ReadFull(r, scratch[:len(magic)]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	if got := [8]byte(scratch[:len(magic)]); got != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint, or unsupported version)", got)
	}
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint32(scratch)
	// Never pre-size from an untrusted count: a corrupted header must not
	// translate into a giant allocation. Entries grow the map as they are
	// actually parsed.
	dict := make(map[string]*tensor.Tensor, min(int(count), 1024))
	prev := ""
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, scratch[:2]); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d name length: %w", i, err)
		}
		nameLen := int(binary.LittleEndian.Uint16(scratch))
		if nameLen == 0 || nameLen > MaxNameLen {
			return nil, fmt.Errorf("checkpoint: entry %d has invalid name length %d", i, nameLen)
		}
		if _, err := io.ReadFull(r, scratch[:nameLen]); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %d name: %w", i, err)
		}
		name := string(scratch[:nameLen])
		// Save sorts, so equal state has exactly one encoding; an entry out
		// of order — a duplicate included — is not one Save wrote.
		if name <= prev {
			return nil, fmt.Errorf("checkpoint: entry %q after %q: names must ascend", name, prev)
		}
		prev = name
		ndim, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: entry %q rank: %w", name, err)
		}
		if int(ndim) > MaxDims {
			return nil, fmt.Errorf("checkpoint: entry %q has rank %d > %d", name, ndim, MaxDims)
		}
		if _, err := io.ReadFull(r, scratch[:8*int(ndim)]); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %q dims: %w", name, err)
		}
		shape := make([]int, ndim)
		elems := 1
		for d := range shape {
			dim := int64(binary.LittleEndian.Uint64(scratch[8*d:]))
			if dim < 0 || dim > MaxElems {
				return nil, fmt.Errorf("checkpoint: entry %q has invalid dim %d", name, dim)
			}
			shape[d] = int(dim)
			elems *= int(dim)
			if elems > MaxElems {
				return nil, fmt.Errorf("checkpoint: entry %q exceeds element budget", name)
			}
		}
		t := tensor.New(shape...)
		if err := readFloats(r, scratch, t.Data()); err != nil {
			return nil, fmt.Errorf("checkpoint: entry %q data: %w", name, err)
		}
		dict[name] = t
	}
	return dict, nil
}
