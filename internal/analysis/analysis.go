// Package analysis is the first-party static-analysis framework behind
// fedvet, the checker that turns this repository's determinism contracts
// into executable law.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers read like standard vet checks, but it
// is implemented entirely on the standard library: the build environment
// for this repository is offline, so x/tools cannot be a dependency. The
// subset implemented here is exactly what the fedvet suite needs — one
// package at a time, syntax plus full type information, no cross-package
// facts.
//
// Suppression contract: any diagnostic can be silenced in place with
//
//	//fedvet:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a bare //fedvet:ignore <analyzer> is itself reported as a
// violation — so every contract exception in the tree carries its
// justification next to the code it excuses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker in the fedvet suite.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fedvet:ignore directives. It must be a valid identifier.
	Name string

	// Doc is the analyzer's documentation: first line is a one-line
	// summary, the rest explains the contract it enforces.
	Doc string

	// Run applies the analyzer to one package. Findings are reported
	// via pass.Reportf; the returned error aborts the whole run and is
	// reserved for internal failures, not findings.
	Run func(*Pass) error
}

// A Pass carries one package's syntax and type information through one
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, attributed to the analyzer that raised it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The fedvet
// contracts bind production code; test files assert the contracts from
// outside (bit-identity comparisons, wall-clock bounds) and are exempt.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// ignoreDirective is one parsed //fedvet:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
}

const ignorePrefix = "fedvet:ignore"

// parseIgnores extracts every //fedvet:ignore directive from the files.
func parseIgnores(fset *token.FileSet, files []*ast.File) []ignoreDirective {
	var ds []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Both //fedvet:ignore and /*fedvet:ignore ...*/ forms work;
				// the block form lets a directive share a line with other
				// trailing comments (the test fixtures' want markers).
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = strings.TrimPrefix(text, "//")
				} else {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				ds = append(ds, ignoreDirective{
					pos:      c.Pos(),
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return ds
}

// Run applies each analyzer to the package and returns the surviving
// diagnostics in file/position order.
//
// Suppression semantics: a //fedvet:ignore directive naming analyzer A
// silences A's diagnostics on its own line and on the line immediately
// below it (so the directive can ride above the flagged statement or
// trail it on the same line). A directive with an empty reason silences
// nothing and is itself reported under the analyzer it names, and a
// directive that silenced nothing is reported as stale — suppressions
// must not outlive the code they excuse.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	directives := parseIgnores(fset, files)

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}

		used := make(map[int]bool) // index into directives
		for _, d := range pass.diags {
			suppressed := false
			dp := fset.Position(d.Pos)
			for i, dir := range directives {
				if dir.analyzer != a.Name || dir.reason == "" {
					continue
				}
				if dir.file == dp.Filename && (dir.line == dp.Line || dir.line == dp.Line-1) {
					suppressed = true
					used[i] = true
				}
			}
			if !suppressed {
				out = append(out, d)
			}
		}
		for i, dir := range directives {
			if dir.analyzer != a.Name {
				continue
			}
			switch {
			case dir.reason == "":
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: a.Name,
					Message:  fmt.Sprintf("fedvet:ignore %s needs a reason: every suppression must say why the contract does not apply here", a.Name),
				})
			case !used[i]:
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: a.Name,
					Message:  fmt.Sprintf("stale fedvet:ignore %s: no %s diagnostic on this or the next line", a.Name, a.Name),
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers read
// allocated. Drivers (unitchecker, analysistest) share it so both modes
// type-check identically.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// PkgPathMatches reports whether pkgPath falls under any of the listed
// path fragments at segment granularity: fragment "internal/fl" matches
// "internal/fl", "reffil/internal/fl" and "internal/fl/wire", but not
// "internal/flx". Analyzers use it to scope contracts to the
// deterministic packages regardless of the module prefix (the real tree
// is "reffil/internal/...", analysistest fixtures are "internal/...").
func PkgPathMatches(pkgPath string, fragments []string) bool {
	for _, frag := range fragments {
		if segmentMatch(pkgPath, frag) {
			return true
		}
	}
	return false
}

func segmentMatch(path, frag string) bool {
	idx := 0
	for {
		i := strings.Index(path[idx:], frag)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(frag)
		startOK := start == 0 || path[start-1] == '/'
		endOK := end == len(path) || path[end] == '/'
		if startOK && endOK {
			return true
		}
		idx = start + 1
		if idx >= len(path) {
			return false
		}
	}
}
