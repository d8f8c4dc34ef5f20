package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"reffil/internal/binfmt"
	"reffil/internal/tensor"
)

// runMagic identifies run-state checkpoint files (coordinator resume); the
// trailing digits are the format version. Version 02 added the dataset and
// scale to the header; version 03 moved the header onto binfmt fields and
// added the checksum trailer.
var runMagic = [8]byte{'R', 'F', 'L', 'R', 'U', 'N', '0', '3'}

// castagnoli is the CRC-32C table of the run-state trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// maxTasks bounds the serialized accuracy matrix.
	maxTasks = 4096
	// maxPayload bounds the method wire-state payload (256 MiB).
	maxPayload = 1 << 28
)

// RunState is everything a restarted coordinator needs to resume a
// federated run from a round boundary and reproduce the uninterrupted
// run's accuracy matrix bit for bit: the resume position, the accuracy
// rows recorded so far, the global model state and the method's wire-state
// payload (fl.WireStater — LwF's teacher, EWC's Fisher/anchor maps,
// RefFiL's prompt bank). Method, Dataset, Scale and Seed guard against
// resuming with a mismatched configuration; everything derivable from them
// and the task index — datasets, shards, client pools, RNG draws — is
// reconstructed by the engine's fast-forward replay instead of being
// serialized.
type RunState struct {
	// Method is the algorithm flag the run was started with.
	Method string
	// Dataset and Scale are the run's -dataset and -scale flags. Either may
	// be empty, from a writer that does not name them.
	Dataset string
	Scale   string
	// Seed is the shared run seed.
	Seed int64
	// NextTask/NextRound are the resume position: the first round the
	// resumed run executes. NextRound may equal the configured round count,
	// meaning the task's rounds all completed but its task-end hooks and
	// evaluation had not yet run when the snapshot was taken.
	NextTask  int
	NextRound int
	// Matrix holds the accuracy rows recorded before the snapshot
	// (metrics.Matrix.A; unevaluated cells are NaN).
	Matrix [][]float64
	// Global is the aggregated global model state at the snapshot.
	Global map[string]*tensor.Tensor
	// Payload is the method's encoded wire state at the snapshot;
	// HasPayload marks that the method carries one.
	Payload    []byte
	HasPayload bool
}

// SaveRunState writes a resumable run snapshot to w. The layout is the
// magic; the header in binfmt fields — method, dataset and scale (strings
// of at most MaxNameLen bytes), seed, resume task and round, the matrix
// (a row count, then per row a cell count and its float64s), the payload
// flag and the payload; the global state dict in the standard checkpoint
// format; and a trailer, the CRC-32C (Castagnoli) of every byte before it,
// big endian.
func SaveRunState(w io.Writer, rs *RunState) error {
	if rs.Method == "" {
		return fmt.Errorf("checkpoint: empty run method")
	}
	if rs.NextTask < 0 || rs.NextTask > maxTasks || rs.NextRound < 0 || rs.NextRound > maxTasks {
		return fmt.Errorf("checkpoint: invalid resume position task %d round %d", rs.NextTask, rs.NextRound)
	}
	if len(rs.Payload) > maxPayload {
		return fmt.Errorf("checkpoint: payload of %d bytes exceeds %d", len(rs.Payload), maxPayload)
	}
	names, _, err := layout(rs.Global)
	if err != nil {
		return err
	}
	hw := binfmt.Writer{Buf: append([]byte(nil), runMagic[:]...)}
	hw.String(rs.Method, MaxNameLen)
	hw.String(rs.Dataset, MaxNameLen)
	hw.String(rs.Scale, MaxNameLen)
	hw.Varint(rs.Seed)
	hw.Uvarint(uint64(rs.NextTask))
	hw.Uvarint(uint64(rs.NextRound))
	hw.Count(len(rs.Matrix), maxTasks)
	for _, row := range rs.Matrix {
		hw.Count(len(row), maxTasks)
		for _, v := range row {
			hw.F64(v)
		}
	}
	hw.Flag(rs.HasPayload)
	// The payload's bytes follow from the caller's slice, not a copy.
	hw.Uvarint(uint64(len(rs.Payload)))
	if err := hw.Err(); err != nil {
		return fmt.Errorf("checkpoint: run state: %w", err)
	}
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	if _, err := bw.Write(hw.Buf); err != nil {
		return fmt.Errorf("checkpoint: writing run header: %w", err)
	}
	if _, err := bw.Write(rs.Payload); err != nil {
		return fmt.Errorf("checkpoint: writing run payload: %w", err)
	}
	if err := save(bw, rs.Global, names); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: writing run state: %w", err)
	}
	if _, err := w.Write(sum.Sum(nil)); err != nil {
		return fmt.Errorf("checkpoint: writing run state checksum: %w", err)
	}
	return nil
}

// LoadRunState decodes a resumable run snapshot from b, all of it. It checks
// the magic and then the checksum before it decodes anything, and every
// size field before it allocates; bytes after the global dict are an error.
// The result shares no memory with b.
func LoadRunState(b []byte) (*RunState, error) {
	if len(b) < len(runMagic)+crc32.Size {
		return nil, fmt.Errorf("checkpoint: run state of %d bytes is shorter than its header", len(b))
	}
	if got := [8]byte(b); got != runMagic {
		return nil, fmt.Errorf("checkpoint: bad run-state magic %q (not a run checkpoint, or unsupported version)", got)
	}
	body, trailer := b[:len(b)-crc32.Size], b[len(b)-crc32.Size:]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("checkpoint: run state checksum %08x, trailer says %08x", got, want)
	}
	d := binfmt.NewReader(body[len(runMagic):])
	rs := &RunState{
		Method:  d.String(MaxNameLen),
		Dataset: d.String(MaxNameLen),
		Scale:   d.String(MaxNameLen),
		Seed:    d.Varint(),
	}
	if task, round := d.Uvarint(), d.Uvarint(); task > maxTasks || round > maxTasks {
		d.Fail("invalid resume position task %d round %d", task, round)
	} else {
		rs.NextTask, rs.NextRound = int(task), int(round)
	}
	rs.Matrix = make([][]float64, d.Count(maxTasks, 1))
	for i := range rs.Matrix {
		row := make([]float64, d.Count(maxTasks, 8))
		for j := range row {
			row[j] = d.F64()
		}
		rs.Matrix[i] = row
	}
	rs.HasPayload = d.Flag()
	// Cloned, so the snapshot does not keep b alive.
	rs.Payload = bytes.Clone(d.Bytes(maxPayload))
	if rs.Method == "" {
		d.Fail("empty run method")
	}
	dict := d.Rest()
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("checkpoint: run state: %w", err)
	}
	global, err := Unmarshal(dict)
	if err != nil {
		return nil, err
	}
	rs.Global = global
	return rs, nil
}

// SaveRunStateFile writes a run snapshot to path through a temp file in the
// same directory and a rename. The temp file is synced before it is renamed
// and the directory after, so once it returns nil path holds the new bytes
// even across a machine crash; a process or machine killed mid-write leaves
// the previous snapshot intact, never a torn one.
func SaveRunStateFile(path string, rs *RunState) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp.Name())
		}
	}()
	if err = SaveRunState(tmp, rs); err != nil {
		_ = tmp.Close()
		return err
	}
	if err = tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: syncing temp file: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing temp file: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: installing %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", dir, err)
	}
	if err = d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", dir, err)
	}
	return d.Close()
}

// LoadRunStateFile reads a run snapshot from path.
func LoadRunStateFile(path string) (*RunState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	return LoadRunState(b)
}
