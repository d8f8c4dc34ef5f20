package experiments

import (
	"strings"
	"testing"

	"reffil/internal/core"
	"reffil/internal/metrics"
)

func TestParseScale(t *testing.T) {
	tests := []struct {
		in      string
		want    Scale
		wantErr bool
	}{
		{"smoke", ScaleSmoke, false},
		{"mini", ScaleMini, false},
		{"paper", ScalePaper, false},
		{"huge", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseScale(tt.in)
		if (err != nil) != tt.wantErr {
			t.Fatalf("ParseScale(%q) err = %v", tt.in, err)
		}
		if err == nil && got != tt.want {
			t.Fatalf("ParseScale(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	for _, s := range []Scale{ScaleSmoke, ScaleMini, ScalePaper} {
		if back, err := ParseScale(s.String()); err != nil || back != s {
			t.Fatalf("scale %v does not round trip", s)
		}
	}
}

func TestScaleFamilies(t *testing.T) {
	// Every scale must produce every family; smoke/mini cap FedDomainNet's
	// classes, paper keeps all 48.
	f, err := ScaleMini.Family("feddomainnet")
	if err != nil {
		t.Fatal(err)
	}
	if f.Classes != 10 {
		t.Fatalf("mini feddomainnet classes = %d, want 10", f.Classes)
	}
	fp, err := ScalePaper.Family("feddomainnet")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Classes != 48 {
		t.Fatalf("paper feddomainnet classes = %d, want 48", fp.Classes)
	}
}

func TestEngineConfigsValidate(t *testing.T) {
	for _, s := range []Scale{ScaleSmoke, ScaleMini, ScalePaper} {
		for _, ds := range []string{"digitsfive", "officecaltech10", "pacs", "feddomainnet"} {
			cfg := s.EngineConfig(ds, 1)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%v/%s config invalid: %v", s, ds, err)
			}
		}
	}
}

func TestPaperLearningRates(t *testing.T) {
	cfg := ScalePaper.EngineConfig("officecaltech10", 1)
	if cfg.LR != 0.06 {
		t.Fatalf("office LR = %v, want 0.06", cfg.LR)
	}
	if got := ScalePaper.EngineConfig("feddomainnet", 1).LR; got != 0.04 {
		t.Fatalf("feddomainnet LR = %v, want 0.04", got)
	}
	if got := ScalePaper.EngineConfig("pacs", 1).LR; got != 0.03 {
		t.Fatalf("pacs LR = %v, want 0.03", got)
	}
	office := ScalePaper.EngineConfig("officecaltech10", 1)
	if office.InitialClients != 10 || office.SelectPerRound != 5 || office.ClientsPerTaskInc != 1 {
		t.Fatalf("office paper setup = %+v, want 10/5/+1", office)
	}
	digits := ScalePaper.EngineConfig("digitsfive", 1)
	if digits.InitialClients != 20 || digits.SelectPerRound != 10 || digits.ClientsPerTaskInc != 2 {
		t.Fatalf("digits paper setup = %+v, want 20/10/+2", digits)
	}
	if digits.Rounds != 30 || digits.Epochs != 20 {
		t.Fatalf("paper rounds/epochs = %d/%d, want 30/20", digits.Rounds, digits.Epochs)
	}
}

func TestNewMethodConstructsAll(t *testing.T) {
	cfg := ScaleSmoke.ModelConfig(7)
	for _, m := range MethodNames {
		alg, err := NewMethod(m, cfg, 4, 1)
		if err != nil {
			t.Fatalf("NewMethod(%q): %v", m, err)
		}
		if alg.Name() != m {
			t.Fatalf("method %q reports name %q", m, alg.Name())
		}
	}
	if _, err := NewMethod("nope", cfg, 4, 1); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestRunOneSmoke(t *testing.T) {
	for _, m := range []string{"Finetune", "RefFiL"} {
		res, err := RunOne(m, "officecaltech10", ScaleSmoke, OrderA, NoOverrides, 5, nil)
		if err != nil {
			t.Fatalf("RunOne(%s): %v", m, err)
		}
		if res.Method != m || res.Dataset != "officecaltech10" {
			t.Fatalf("result identity wrong: %+v", res)
		}
		if len(res.Summary.TaskAcc) != 4 {
			t.Fatalf("expected 4 task accuracies, got %d", len(res.Summary.TaskAcc))
		}
		if res.Summary.Avg < 0 || res.Summary.Avg > 1 {
			t.Fatalf("Avg %v out of range", res.Summary.Avg)
		}
		var sb strings.Builder
		if err := PrintMatrix(&sb, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
		if len(lines) != 7 || lines[0] != "accuracy matrix ("+m+" on officecaltech10, 4 tasks):" ||
			!strings.HasPrefix(lines[5], "Avg ") || lines[6] != "state "+res.State || len(res.State) != 16 {
			t.Fatalf("matrix block malformed:\n%s", sb.String())
		}
	}
}

func TestRunOneOrderBUsesAlternateDomains(t *testing.T) {
	res, err := RunOne("Finetune", "pacs", ScaleSmoke, OrderB, NoOverrides, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains[0] != "cartoon" {
		t.Fatalf("order B first domain = %q, want cartoon", res.Domains[0])
	}
}

func TestRunVariantAblation(t *testing.T) {
	res, err := RunVariant("GPL", "officecaltech10", ScaleSmoke, OrderA, 5, func(c *core.Config) {
		c.EnableCDAP = false
		c.EnableGPL = true
		c.EnableDPCL = false
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "GPL" {
		t.Fatalf("variant label = %q", res.Method)
	}
}

func TestTableRowDefinitions(t *testing.T) {
	if got := len(TableVSetups()); got != 4 {
		t.Fatalf("Table V has %d setups, want 4", got)
	}
	if got := len(TableVIIRows()); got != 6 {
		t.Fatalf("Table VII has %d rows, want 6", got)
	}
	rows := TableVIIIRows()
	if got := len(rows); got != 7 {
		t.Fatalf("Table VIII has %d rows, want 7", got)
	}
	// Exactly one no-decay control and one "ours".
	noDecay, ours := 0, 0
	for _, r := range rows {
		if !r.Decay {
			noDecay++
		}
		if r.Label == "ours" {
			ours++
		}
	}
	if noDecay != 1 || ours != 1 {
		t.Fatalf("Table VIII rows malformed: %d no-decay, %d ours", noDecay, ours)
	}
}

func TestPrintersRenderPaperLayouts(t *testing.T) {
	// Build a tiny fake result set and check the printers produce the
	// paper's row structure without running real experiments.
	fake := func(avg, last float64) Result {
		return Result{
			Domains: []string{"d1", "d2"},
			Summary: summaryOf(avg, last, []float64{avg, last}),
		}
	}
	comparison := MainComparison{"pacs": map[string]Result{}}
	for _, m := range MethodNames {
		comparison["pacs"][m] = fake(0.5, 0.4)
	}
	var sb strings.Builder
	if err := PrintSummaryTable(&sb, "Table I", []string{"pacs"}, comparison); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, m := range []string{"Finetune", "FedL2P†", "FedDualPrompt†", "RefFiL"} {
		if !strings.Contains(out, m) {
			t.Fatalf("summary table missing method %q:\n%s", m, out)
		}
	}
	sb.Reset()
	if err := PrintPerTaskTable(&sb, "Table III", "pacs", comparison); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "d1") || !strings.Contains(sb.String(), "Avg") {
		t.Fatalf("per-task table malformed:\n%s", sb.String())
	}

	single := map[string]Result{}
	for _, m := range MethodNames {
		single[m] = fake(0.6, 0.5)
	}
	sb.Reset()
	if err := PrintMetricTable(&sb, "Table VI", single); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FGT") || !strings.Contains(sb.String(), "BwT") {
		t.Fatalf("metric table missing FGT/BwT:\n%s", sb.String())
	}

	bySetup := make(map[string]map[string]Result)
	for _, s := range TableVSetups() {
		bySetup[s.Label] = single
	}
	sb.Reset()
	if err := PrintSelectionTable(&sb, "Table V", bySetup); err != nil {
		t.Fatal(err)
	}

	abl := map[string]Result{}
	for _, r := range TableVIIRows() {
		abl[r.Label] = fake(0.5, 0.3)
	}
	sb.Reset()
	if err := PrintAblationTable(&sb, "Table VII", abl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CDAP+GPL+DPCL") {
		t.Fatalf("ablation table missing full row:\n%s", sb.String())
	}

	temp := map[string]Result{}
	for _, r := range TableVIIIRows() {
		temp[r.Label] = fake(0.44, 0.38)
	}
	sb.Reset()
	if err := PrintTemperatureTable(&sb, "Table VIII", temp); err != nil {
		t.Fatal(err)
	}
	// The paper's τ′(3rd) for the default config is 0.720.
	if !strings.Contains(sb.String(), "0.720") {
		t.Fatalf("temperature table missing τ′ column value:\n%s", sb.String())
	}
}

// summaryOf builds a metrics.Summary for printer tests.
func summaryOf(avg, last float64, taskAcc []float64) metrics.Summary {
	return metrics.Summary{Avg: avg, Last: last, FGT: 0.1, BwT: -0.1, TaskAcc: taskAcc}
}
