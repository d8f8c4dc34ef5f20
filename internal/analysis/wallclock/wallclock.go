// Package wallclock enforces the no-wall-clock contract on the
// deterministic round/fold/encode paths: internal/fl's engine and
// accumulator, the wire codec, and the checkpoint format must compute the
// same bytes on every run, so time.Now/Since/Until have no business there —
// a timestamp that leaks into state, an encoded frame, or a checkpoint
// breaks cross-runner and resume bit-identity. Timing-by-design packages
// (internal/fl/transport's round timing and deadlines, internal/telemetry
// and its round record) are allowlisted; inside the scoped packages a
// deliberate, state-free timing read (e.g. a telemetry observation) must
// carry a //fedvet:ignore wallclock <reason> annotation.
package wallclock

import (
	"go/ast"
	"go/types"

	"reffil/internal/analysis"
)

// ScopedPkgs are the deterministic paths where wall-clock reads are
// contract violations.
var ScopedPkgs = []string{
	"internal/fl",
	"internal/checkpoint",
}

// AllowlistedPkgs are carved back out of the scope: timing is their job.
var AllowlistedPkgs = []string{
	"internal/fl/transport",
	"internal/telemetry",
}

// banned are the time package functions that read the wall clock.
var banned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// Analyzer flags wall-clock reads on deterministic paths.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "flag time.Now/Since/Until inside the deterministic round/fold/encode packages " +
		"(internal/fl engine+accumulator, internal/fl/wire, internal/checkpoint): wall-clock values " +
		"that reach state, frames, or checkpoints break bit-identity; timing-by-design packages " +
		"(transport, telemetry) are allowlisted",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.PkgPathMatches(path, ScopedPkgs) || analysis.PkgPathMatches(path, AllowlistedPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || !banned[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "time.%s on a deterministic path: wall-clock values must never feed round state, wire frames, or checkpoints; move the timing out or annotate why it cannot leak", fn.Name())
			return true
		})
	}
	return nil
}
