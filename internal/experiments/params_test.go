package experiments

import (
	"reflect"
	"sort"
	"testing"

	"reffil/internal/nn"
)

const paramsPath = "testdata/params.json"

// methodParams is what the optimizer and FedAvg see of one method: Params()
// names in order (ClipGradNorm's sum and SGD's momentum buffers follow it)
// and the sorted state-dict key set (FedAvg's and the wire's keys).
type methodParams struct {
	Params []string `json:"params"`
	State  []string `json:"state"`
}

// TestGoldenParams pins every method's parameter order and state-dict keys
// against a committed file, so a reordered or renamed parameter fails here
// by name before it shows up as a ledger hash. Regenerate with
// `go test ./internal/experiments -run TestGoldenParams -update`.
func TestGoldenParams(t *testing.T) {
	got := make(map[string]methodParams, len(MethodNames))
	for _, name := range MethodNames {
		alg, err := NewMethod(name, ScaleSmoke.ModelConfig(7), 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var mp methodParams
		for _, p := range alg.Global().Params() {
			mp.Params = append(mp.Params, p.Name)
		}
		for key := range nn.StateDict(alg.Global()) {
			mp.State = append(mp.State, key)
		}
		sort.Strings(mp.State)
		got[name] = mp
	}

	want := make(map[string]methodParams)
	if !golden(t, paramsPath, got, &want) {
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d methods, this run produced %d", paramsPath, len(want), len(got))
	}
	for _, name := range MethodNames {
		g, w := got[name], want[name]
		if !reflect.DeepEqual(g.Params, w.Params) {
			i := 0
			for i < len(g.Params) && i < len(w.Params) && g.Params[i] == w.Params[i] {
				i++
			}
			t.Errorf("%s: Params() leaves the golden order at index %d: got %q, golden has %q",
				name, i, g.Params[i:min(i+1, len(g.Params))], w.Params[i:min(i+1, len(w.Params))])
		}
		if !reflect.DeepEqual(g.State, w.State) {
			t.Errorf("%s: state-dict keys = %v, golden has %v", name, g.State, w.State)
		}
	}
}
