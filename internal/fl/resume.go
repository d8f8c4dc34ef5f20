// Coordinator resume: the engine can snapshot every state a run can be
// resumed from (Engine.Checkpoint) and fast-forward a fresh process to one
// of those states (Engine.Resume), reproducing the uninterrupted run's
// accuracy matrix bit for bit.
//
// The snapshot is the run-state file's own record, checkpoint.RunState: the
// engine fills the resume position, the recorded accuracy rows, the global
// model dict and the method's wire-state payload — the same state a worker
// needs to train a round (fl.WireStater), which is the invariant the
// transport already maintains — and whoever writes the file stamps the run's
// method, dataset, scale and seed on it. Everything else — datasets, client
// pools, shards, and every RNG draw — is a deterministic function of (seed,
// task, round), so a resumed engine *replays* it: it re-runs client
// advancement and re-makes the selection/dropout draws for every completed
// round, discarding the results, until its ambient RNG stream sits exactly
// where the original run's did at the snapshot.
package fl

import (
	"fmt"

	"reffil/internal/checkpoint"
	"reffil/internal/metrics"
	"reffil/internal/nn"
)

// ResumeState is one resumable snapshot of a run, produced by the engine's
// Checkpoint hook after every installed round and every completed task,
// and consumed by Engine.Resume in a fresh process. Its NextRound ranges
// [0, Rounds]: 0 means the snapshot sits at a task boundary (the previous
// task fully evaluated, OnTaskStart not yet run), Rounds means the task's
// rounds all completed but its task-end hook and evaluation are still
// pending. NextTask may equal the task count, marking a finished run. The
// engine reads none of the run-identity fields (Method, Dataset, Scale,
// Seed) and leaves them empty.
type ResumeState = checkpoint.RunState

// validateResume bounds the resume position against the run's shape.
func validateResume(rs *ResumeState, tasks, rounds int) error {
	if rs.NextTask < 0 || rs.NextTask > tasks {
		return fmt.Errorf("fl: resume task %d out of range [0,%d]", rs.NextTask, tasks)
	}
	if rs.NextRound < 0 || rs.NextRound > rounds {
		return fmt.Errorf("fl: resume round %d out of range [0,%d]", rs.NextRound, rounds)
	}
	if rs.NextTask == tasks && rs.NextRound != 0 {
		return fmt.Errorf("fl: resume past the final task must carry round 0, got %d", rs.NextRound)
	}
	return nil
}

// checkpointAfter snapshots the run for the Checkpoint hook with the given
// resume position. The matrix rows are copies, but the global dict holds
// the model's own tensors, so the snapshot is valid only during the call: a
// hook serializes it there, or copies what it keeps.
func (e *Engine) checkpointAfter(nextTask, nextRound int, mat *metrics.Matrix) error {
	if e.Checkpoint == nil {
		return nil
	}
	rows := make([][]float64, len(mat.A))
	for i, row := range mat.A {
		rows[i] = append([]float64(nil), row...)
	}
	st := ResumeState{
		NextTask:  nextTask,
		NextRound: nextRound,
		Matrix:    rows,
		Global:    nn.Tensors(e.alg.Global()),
	}
	if ws, ok := e.alg.(WireStater); ok {
		payload, err := ws.EncodeWireState()
		if err != nil {
			return fmt.Errorf("fl: encoding checkpoint wire state: %w", err)
		}
		st.Payload, st.HasPayload = payload, true
	}
	if err := e.Checkpoint(st); err != nil {
		return fmt.Errorf("fl: checkpoint at task %d round %d: %w", nextTask, nextRound, err)
	}
	return nil
}

// installResume loads the snapshot's global model and wire state into the
// algorithm at the resume point.
func (e *Engine) installResume(rs *ResumeState) error {
	if rs.Global == nil {
		return fmt.Errorf("fl: resume state has no global model")
	}
	if err := nn.LoadStateDict(e.alg.Global(), rs.Global); err != nil {
		return fmt.Errorf("fl: loading resume global state: %w", err)
	}
	if rs.HasPayload {
		ws, ok := e.alg.(WireStater)
		if !ok {
			return fmt.Errorf("fl: resume state carries a wire payload but %s holds no wire state", e.alg.Name())
		}
		if err := ws.LoadWireState(rs.Payload); err != nil {
			return fmt.Errorf("fl: loading resume wire state: %w", err)
		}
	}
	return nil
}

// copyResumeRow restores a fast-forwarded task's recorded accuracy row.
func copyResumeRow(mat *metrics.Matrix, rs *ResumeState, t int) error {
	if t >= len(rs.Matrix) || len(rs.Matrix[t]) <= t {
		return fmt.Errorf("fl: resume state is missing accuracy row %d", t)
	}
	for i := 0; i <= t; i++ {
		if err := mat.Record(t, i, rs.Matrix[t][i]); err != nil {
			return fmt.Errorf("fl: restoring resume accuracy row %d: %w", t, err)
		}
	}
	return nil
}
