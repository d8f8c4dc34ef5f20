// Package registry enumerates the fedvet analyzer suite. cmd/fedvet and
// the meta-tests import it so the set of registered analyzers has exactly
// one source of truth; an analyzer package that exists under
// internal/analysis but is missing here fails the registration meta-test.
package registry

import (
	"reffil/internal/analysis"
	"reffil/internal/analysis/floatbits"
	"reffil/internal/analysis/maporder"
	"reffil/internal/analysis/seededrand"
	"reffil/internal/analysis/wallclock"
)

// All returns every analyzer in the fedvet suite, in diagnostic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		floatbits.Analyzer,
		maporder.Analyzer,
		seededrand.Analyzer,
		wallclock.Analyzer,
	}
}
