// Package data provides the synthetic domain-incremental image benchmarks
// used by the reproduction. The paper evaluates on Digits-Five,
// OfficeCaltech10, PACS and a DomainNet subset; those corpora are not
// available offline, so each family here procedurally renders class
// prototypes and applies per-domain transformations (colour mixing,
// background texture, blur, edge extraction, inversion, noise) that produce
// statistically distinct domains over a shared label space — the structural
// property federated domain-incremental learning exercises.
//
// The package also implements the paper's non-iid partitioning: clients
// share the class distribution but differ in data quantity (quantity shift).
package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reffil/internal/tensor"
)

// Example is one labelled image. X has shape (3, S, S) with values in [0,1].
// Task tags the incremental task the example belongs to (set by the
// federated engine when sharding); prompt-based methods condition on it
// during training only.
type Example struct {
	X    *tensor.Tensor
	Y    int
	Task int
}

// Dataset is an ordered collection of labelled images from one domain.
type Dataset struct {
	Name     string
	Domain   string
	Examples []Example
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Merge returns a dataset holding the examples of all inputs, in order.
func Merge(name string, ds ...*Dataset) *Dataset {
	out := &Dataset{Name: name}
	for _, d := range ds {
		if d == nil {
			continue
		}
		out.Examples = append(out.Examples, d.Examples...)
		if out.Domain == "" {
			out.Domain = d.Domain
		} else if d.Domain != "" && d.Domain != out.Domain {
			out.Domain = "mixed"
		}
	}
	return out
}

// Batch is a minibatch: X is (B,3,S,S), Y the labels, Task the per-example
// incremental-task tags.
type Batch struct {
	X    *tensor.Tensor
	Y    []int
	Task []int
}

// Batches shuffles the dataset with rng and splits it into minibatches of
// at most batchSize examples, collated onto the heap. The final short batch
// is kept.
func Batches(ds *Dataset, batchSize int, rng *rand.Rand) ([]Batch, error) {
	spans, err := BatchIndices(ds, batchSize, rng)
	if err != nil {
		return nil, err
	}
	out := make([]Batch, len(spans))
	for i, idx := range spans {
		out[i] = Collate(nil, ds, idx)
	}
	return out, nil
}

// BatchIndices is Batches without the collation: the example indices of
// each minibatch, shuffled by one rng.Perm — in order when rng is nil — so
// a caller can collate each batch just before it uses it (see Collate).
func BatchIndices(ds *Dataset, batchSize int, rng *rand.Rand) ([][]int, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("data: batch size must be positive, got %d", batchSize)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("data: cannot batch empty dataset %q", ds.Name)
	}
	var idx []int
	if rng != nil {
		idx = rng.Perm(ds.Len())
	} else {
		idx = make([]int, ds.Len())
		for i := range idx {
			idx[i] = i
		}
	}
	spans := make([][]int, 0, (len(idx)+batchSize-1)/batchSize)
	for start := 0; start < len(idx); start += batchSize {
		spans = append(spans, idx[start:min(start+batchSize, len(idx))])
	}
	return spans, nil
}

// Collate gathers the examples at idx, which must share one shape, into a
// batch whose X — (len(idx), example shape...) — is drawn from ar, or from
// the heap when ar is nil. An arena batch dies at ar's next Reset like
// everything else drawn there.
func Collate(ar *tensor.Arena, ds *Dataset, idx []int) Batch {
	first := ds.Examples[idx[0]].X
	var dims [8]int // the batch shape, gathered on the stack
	shape := append(dims[:0], len(idx))
	for i := 0; i < first.NDim(); i++ {
		shape = append(shape, first.Dim(i))
	}
	x := ar.Scratch(shape...) // every element is copied below
	y := make([]int, len(idx))
	task := make([]int, len(idx))
	per := first.Size()
	for i, j := range idx {
		copy(x.Data()[i*per:(i+1)*per], ds.Examples[j].X.Data())
		y[i] = ds.Examples[j].Y
		task[i] = ds.Examples[j].Task
	}
	return Batch{X: x, Y: y, Task: task}
}

// SetTask tags every example with the given incremental-task index.
func (d *Dataset) SetTask(task int) {
	for i := range d.Examples {
		d.Examples[i].Task = task
	}
}

// PartitionQuantityShift splits ds into m client shards that share the class
// distribution but differ in size following a power law with exponent
// alpha >= 0 (alpha=0 gives equal shards; larger alpha skews harder). Every
// shard receives at least one example per class when feasible, matching the
// paper's "equal classes, quantity shift" setting.
func PartitionQuantityShift(ds *Dataset, m int, alpha float64, rng *rand.Rand) ([]*Dataset, error) {
	if m <= 0 {
		return nil, fmt.Errorf("data: client count must be positive, got %d", m)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("data: power-law exponent must be non-negative, got %v", alpha)
	}
	if ds.Len() < m {
		return nil, fmt.Errorf("data: %d examples cannot cover %d clients", ds.Len(), m)
	}
	// Shard weights w_i ∝ (i+1)^-alpha, shuffled so client order is not
	// correlated with shard size.
	weights := make([]float64, m)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), alpha)
		total += weights[i]
	}
	rng.Shuffle(m, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })

	// Group example indices per class and deal classes proportionally so
	// every shard keeps the full label space. Classes are visited in
	// sorted order: map iteration order would otherwise make the shard
	// assignment nondeterministic across runs.
	byClass := make(map[int][]int)
	for i, ex := range ds.Examples {
		byClass[ex.Y] = append(byClass[ex.Y], i)
	}
	classes := make([]int, 0, len(byClass))
	for k := range byClass {
		classes = append(classes, k)
	}
	sort.Ints(classes)
	shards := make([][]int, m)
	for _, k := range classes {
		members := byClass[k]
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		start := 0
		acc := 0.0
		for s := 0; s < m; s++ {
			acc += weights[s]
			end := int(acc / total * float64(len(members)))
			if s == m-1 {
				end = len(members)
			}
			if end < start {
				end = start
			}
			if end == start && start < len(members) {
				end = start + 1 // guarantee at least one example per class
			}
			if end > len(members) {
				end = len(members)
			}
			shards[s] = append(shards[s], members[start:end]...)
			start = end
		}
	}
	out := make([]*Dataset, m)
	for s := range shards {
		sub := &Dataset{Name: fmt.Sprintf("%s/client%d", ds.Name, s), Domain: ds.Domain}
		for _, i := range shards[s] {
			sub.Examples = append(sub.Examples, ds.Examples[i])
		}
		out[s] = sub
	}
	return out, nil
}
