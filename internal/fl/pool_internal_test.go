package fl

import (
	"strings"
	"testing"

	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// layoutAlg is a fakeAlg with buffers whose layout a test changes between
// rounds, the way a parent that broke Algorithm's contract would.
type layoutAlg struct {
	fakeAlg
	bufs []nn.Buffer
}

func (a *layoutAlg) Global() nn.Module    { return a }
func (a *layoutAlg) Buffers() []nn.Buffer { return a.bufs }

func (a *layoutAlg) Spawn() (Algorithm, error) {
	rep := &layoutAlg{fakeAlg: fakeAlg{w: a.w.CloneLeaf(), stats: a.stats}}
	for _, b := range a.bufs {
		rep.bufs = append(rep.bufs, nn.Buffer{Name: b.Name, T: b.T.Clone()})
	}
	return rep, nil
}

// TestReplicaPoolRefusesAChangedLayout: a pooled replica is brought to the
// global model by name and shape, so a parent whose Global() no longer has
// the replica's layout — a tensor of another shape, a new tensor, a missing
// one — is refused with an error that names the key, and the replica is
// not copied into at all: its parameter, which comes before the buffers in
// the copy, still holds what its last job trained.
func TestReplicaPoolRefusesAChangedLayout(t *testing.T) {
	cases := []struct {
		name   string
		key    string
		change func(a *layoutAlg)
	}{
		{"shape", "b", func(a *layoutAlg) { a.bufs[0].T = tensor.New(3) }},
		{"added", "c", func(a *layoutAlg) { a.bufs = append(a.bufs, nn.Buffer{Name: "c", T: tensor.New(1)}) }},
		{"dropped", "b", func(a *layoutAlg) { a.bufs = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alg := &layoutAlg{fakeAlg: *newFakeAlg(), bufs: []nn.Buffer{{Name: "b", T: tensor.New(2)}}}
			lr := &LocalRunner{Alg: alg, Workers: 1}
			job := []Job{{Ctx: &LocalContext{}, Weight: 1}}
			release := func(_ int, res Result) error {
				res.Release()
				return nil
			}
			if err := lr.RunEach(job, release); err != nil {
				t.Fatal(err)
			}
			if len(lr.replicas) != 1 {
				t.Fatalf("the pool holds %d replicas after one released job, want 1", len(lr.replicas))
			}
			rep := lr.replicas[0]
			trained := rep.dict["w"].Data()[0]

			alg.w.T.Data()[0] = 10
			tc.change(alg)
			err := lr.RunEach(job, release)
			if err == nil {
				t.Fatal("a replica of another layout was taken")
			}
			t.Logf("refused: %v", err)
			if !strings.Contains(err.Error(), `"`+tc.key+`"`) {
				t.Fatalf("the error %q does not name %q", err, tc.key)
			}
			if got := rep.dict["w"].Data()[0]; got != trained {
				t.Fatalf("the refused replica's w was copied into: %v, want the trained %v", got, trained)
			}
		})
	}
}
