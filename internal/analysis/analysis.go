// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast, go/types and go/importer. It exists because the engine's
// load-bearing invariants — cooperative cancellation checkpoints in operator
// loops, pooled-batch release on close, snapshot-pinned reads inside compiled
// plans, and context threading — were convention enforced by code review, and
// each was violated at least once during the PR that introduced it. The
// analyzers in this package turn those conventions into vet-time errors.
//
// The framework mirrors the x/tools API surface (Analyzer, Pass, Diagnostic)
// so the analyzers could be ported to the real go/analysis with mechanical
// changes, but it has no dependency beyond the standard library: packages are
// loaded either from `go list -deps -json` plus source typechecking (the
// standalone path, see load.go) or from the go command's export data via the
// vettool protocol (see cmd/rdfviews-lint).
//
// Intentional exceptions are annotated in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the line immediately above the flagged line (or trailing on the same
// line). The reason is mandatory; a bare directive does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Tests keeps the analyzer's findings in _test.go files, which Reportf
	// otherwise drops: the analyzer decides itself which test files it reads.
	Tests bool
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. One in a _test.go file is dropped
// unless the analyzer reads tests (Analyzer.Tests): tests exercise operators
// in deliberately degenerate ways (draining a cursor with no interrupt to
// prove a point) and are covered by the race detector instead.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	if strings.HasSuffix(at.Filename, "_test.go") && !p.Analyzer.Tests {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      at,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, located by its resolved file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked package as seen by the analyzers.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Findings suppressed by a //lint:ignore
// directive with a reason are dropped.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				diags:     &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Pkg.Path(), err)
			}
		}
		for _, d := range pkgDiags {
			if ignores.covers(d) {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreSet maps file -> line -> analyzer names suppressed on that line.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	names := lines[d.Pos.Line]
	return names != nil && (names[d.Analyzer] || names["*"])
}

// collectIgnores gathers //lint:ignore directives. A directive on line N
// suppresses matching findings on line N+1, unless the directive shares its
// line with code, in which case it suppresses line N itself.
func collectIgnores(pkg *Package) ignoreSet {
	set := ignoreSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					// No reason given: the directive is inert by design.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line + 1
				if !isLineStart(pkg.Fset, f, c) {
					line = pos.Line
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				names := lines[line]
				if names == nil {
					names = map[string]bool{}
					lines[line] = names
				}
				for _, n := range strings.Split(fields[0], ",") {
					names[n] = true
				}
			}
		}
	}
	return set
}

// isLineStart reports whether comment c is the first token on its line.
func isLineStart(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// A trailing comment follows some node that ends on the same line. Walk
	// the file's top-level comment map cheaply: compare against the file's
	// tokens by position using the fset line info. We approximate by checking
	// whether any non-comment token of the file starts earlier on the same
	// line; ast keeps no such index, so inspect declarations.
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		np := fset.Position(n.Pos())
		if np.Line == pos.Line && np.Offset < pos.Offset {
			first = false
			return false
		}
		return true
	})
	return first
}
