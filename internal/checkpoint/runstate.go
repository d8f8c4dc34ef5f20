package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"reffil/internal/tensor"
)

// runMagic identifies run-state checkpoint files (coordinator resume); the
// trailing digits are the format version.
var runMagic = [8]byte{'R', 'F', 'L', 'R', 'U', 'N', '0', '1'}

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
// RefFiL's prompt bank). Method and Seed guard against resuming with a
// mismatched configuration; everything derivable from (method, seed, task
// index) — datasets, shards, client pools, RNG draws — is reconstructed by
// the engine's fast-forward replay instead of being serialized.
type RunState struct {
	// Method is the algorithm flag the run was started with.
	Method string
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
// header (magic, method, seed, position, matrix, payload) followed by the
// global state dict in the standard checkpoint format.
func SaveRunState(w io.Writer, rs *RunState) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(runMagic[:]); err != nil {
		return fmt.Errorf("checkpoint: writing run header: %w", err)
	}
	if len(rs.Method) == 0 || len(rs.Method) > maxNameLen {
		return fmt.Errorf("checkpoint: invalid method name length %d", len(rs.Method))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(rs.Method))); err != nil {
		return err
	}
	if _, err := bw.WriteString(rs.Method); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, rs.Seed); err != nil {
		return err
	}
	if rs.NextTask < 0 || rs.NextTask > maxTasks || rs.NextRound < 0 || rs.NextRound > maxTasks {
		return fmt.Errorf("checkpoint: invalid resume position task %d round %d", rs.NextTask, rs.NextRound)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(rs.NextTask)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(rs.NextRound)); err != nil {
		return err
	}
	if len(rs.Matrix) > maxTasks {
		return fmt.Errorf("checkpoint: matrix with %d rows exceeds %d", len(rs.Matrix), maxTasks)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(rs.Matrix))); err != nil {
		return err
	}
	scratch := make([]byte, chunkBytes)
	for _, row := range rs.Matrix {
		if len(row) > maxTasks {
			return fmt.Errorf("checkpoint: matrix row with %d cells exceeds %d", len(row), maxTasks)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(row))); err != nil {
			return err
		}
		if err := writeFloats(bw, scratch, row); err != nil {
			return err
		}
	}
	hasPayload := byte(0)
	if rs.HasPayload {
		hasPayload = 1
	}
	if err := bw.WriteByte(hasPayload); err != nil {
		return err
	}
	if len(rs.Payload) > maxPayload {
		return fmt.Errorf("checkpoint: payload of %d bytes exceeds %d", len(rs.Payload), maxPayload)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(rs.Payload))); err != nil {
		return err
	}
	if _, err := bw.Write(rs.Payload); err != nil {
		return err
	}
	if err := Save(bw, rs.Global); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flushing run state: %w", err)
	}
	return nil
}

// LoadRunState reads a resumable run snapshot from r to its end, validating
// every size field before allocating. The global state dict is the last
// field, read by Load, so bytes after it are an error.
func LoadRunState(r io.Reader) (*RunState, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading run header: %w", err)
	}
	if got != runMagic {
		return nil, fmt.Errorf("checkpoint: bad run-state magic %q (not a run checkpoint, or unsupported version)", got)
	}
	rs := &RunState{}
	var methodLen uint16
	if err := binary.Read(br, binary.LittleEndian, &methodLen); err != nil {
		return nil, fmt.Errorf("checkpoint: run method length: %w", err)
	}
	if methodLen == 0 || int(methodLen) > maxNameLen {
		return nil, fmt.Errorf("checkpoint: invalid run method length %d", methodLen)
	}
	methodBuf := make([]byte, methodLen)
	if _, err := io.ReadFull(br, methodBuf); err != nil {
		return nil, fmt.Errorf("checkpoint: run method: %w", err)
	}
	rs.Method = string(methodBuf)
	if err := binary.Read(br, binary.LittleEndian, &rs.Seed); err != nil {
		return nil, fmt.Errorf("checkpoint: run seed: %w", err)
	}
	var nextTask, nextRound uint32
	if err := binary.Read(br, binary.LittleEndian, &nextTask); err != nil {
		return nil, fmt.Errorf("checkpoint: resume task: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &nextRound); err != nil {
		return nil, fmt.Errorf("checkpoint: resume round: %w", err)
	}
	if nextTask > maxTasks || nextRound > maxTasks {
		return nil, fmt.Errorf("checkpoint: invalid resume position task %d round %d", nextTask, nextRound)
	}
	rs.NextTask, rs.NextRound = int(nextTask), int(nextRound)
	var rows uint32
	if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
		return nil, fmt.Errorf("checkpoint: matrix rows: %w", err)
	}
	if rows > maxTasks {
		return nil, fmt.Errorf("checkpoint: matrix with %d rows exceeds %d", rows, maxTasks)
	}
	rs.Matrix = make([][]float64, rows)
	scratch := make([]byte, chunkBytes)
	for i := range rs.Matrix {
		var cols uint32
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return nil, fmt.Errorf("checkpoint: matrix row %d: %w", i, err)
		}
		if cols > maxTasks {
			return nil, fmt.Errorf("checkpoint: matrix row %d with %d cells exceeds %d", i, cols, maxTasks)
		}
		row := make([]float64, cols)
		if err := readFloats(br, scratch, row); err != nil {
			return nil, fmt.Errorf("checkpoint: matrix row %d cells: %w", i, err)
		}
		rs.Matrix[i] = row
	}
	hasPayload, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: payload flag: %w", err)
	}
	rs.HasPayload = hasPayload != 0
	var payloadLen uint32
	if err := binary.Read(br, binary.LittleEndian, &payloadLen); err != nil {
		return nil, fmt.Errorf("checkpoint: payload length: %w", err)
	}
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload of %d bytes exceeds %d", payloadLen, maxPayload)
	}
	rs.Payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(br, rs.Payload); err != nil {
		return nil, fmt.Errorf("checkpoint: payload: %w", err)
	}
	if rs.Global, err = Load(br); err != nil {
		return nil, err
	}
	return rs, nil
}

// SaveRunStateFile atomically writes a run snapshot to path: a coordinator
// killed mid-write leaves the previous snapshot intact, never a torn file.
func SaveRunStateFile(path string, rs *RunState) error {
	return writeFileAtomic(path, func(w io.Writer) error { return SaveRunState(w, rs) })
}

// LoadRunStateFile reads a run snapshot from path.
func LoadRunStateFile(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	defer f.Close()
	return LoadRunState(f)
}
