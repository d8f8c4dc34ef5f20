// Package seededrand enforces the repository's randomness contract: inside
// the deterministic packages, every random draw must flow through an
// explicitly seeded *rand.Rand threaded from the run seed. The package-level
// math/rand functions (rand.Float64, rand.Intn, rand.Shuffle, the global
// rand.Seed, ...) draw from a process-global source whose state depends on
// everything else that touched it — two runs, or a coordinator and a
// worker, see different streams and bit-identity dies. crypto/rand is
// non-deterministic by design and is banned outright in these packages.
package seededrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"reffil/internal/analysis"
)

// DeterministicPkgs lists the path fragments (segment-matched, module
// prefix ignored) whose packages carry the seeded-randomness contract.
// internal/fl covers wire and transport by prefix; telemetry and parallel
// are out — they never influence model state.
var DeterministicPkgs = []string{
	"internal/fl",
	"internal/nn",
	"internal/model",
	"internal/data",
	"internal/baselines",
	"internal/core",
	"internal/tensor",
	"internal/autograd",
	"internal/opt",
	"internal/finch",
	"internal/experiments",
	"internal/metrics",
	"internal/checkpoint",
}

// constructors are the math/rand package-level names that build an
// explicitly seeded generator rather than drawing from the global one.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *rand.Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// Analyzer flags unseeded randomness in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "flag math/rand package-level draws (global source) and any crypto/rand use inside the " +
		"deterministic packages: all randomness there must flow through an explicitly seeded " +
		"*rand.Rand derived from the run seed, or two runners diverge and bit-identity dies",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), DeterministicPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "crypto/rand" {
				pass.Reportf(imp.Pos(), "crypto/rand in deterministic package %s: draws are non-reproducible by design; derive randomness from the run seed via a *math/rand.Rand instead", pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkgPath := obj.Pkg().Path()
			if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				// Types (rand.Rand, rand.Source) and methods on an
				// instance are the blessed path.
				return true
			}
			if constructors[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "rand.%s draws from the process-global source; thread an explicitly seeded *rand.Rand from the run seed instead", fn.Name())
			return true
		})
	}
	return nil
}
