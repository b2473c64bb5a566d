package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Offline package loader for the standalone path (rdfviews-lint run directly,
// and the fixture tests). It resolves patterns with `go list -deps -test
// -json`, parses the non-standard packages' sources, and typechecks them in
// dependency order, test variants too, as go vet sees them: a package with
// tests is analyzed as its test variant (its files plus its _test.go
// files), and an external test package as its own package. Standard-library
// imports are typechecked lazily from $GOROOT/src by the stdlib "source"
// importer, so loading needs neither a module cache nor the network. The
// vettool path in cmd/rdfviews-lint does not use this loader: there the go
// command hands us export data instead.

type listPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	GoFiles     []string
	ImportMap   map[string]string
	TestGoFiles []string
	Standard    bool
	DepOnly     bool
}

// Load type-checks the packages matching patterns, resolved relative to dir.
// It returns only the root (pattern-matched) packages, each in its test
// variant where it has one; dependencies are loaded as needed but not
// analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-test",
		"-json=ImportPath,Name,Dir,GoFiles,ImportMap,TestGoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	typed := map[string]*types.Package{}
	var roots []*Package
	for _, lp := range pkgs {
		// Standard packages are imported lazily from $GOROOT/src; a test
		// binary's generated main has nothing to analyze.
		if lp.Standard || len(lp.GoFiles) == 0 || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if id, ok := lp.ImportMap[path]; ok {
				path = id
			}
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			if tp := typed[path]; tp != nil {
				return tp, nil
			}
			return std.Import(path)
		})
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		// A variant's ID is "path [p.test]"; its package path is path.
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		tp, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
		}
		typed[lp.ImportPath] = tp
		// A package with tests is analyzed as its test variant, which holds
		// its files and more.
		if lp.DepOnly || path == lp.ImportPath && len(lp.TestGoFiles) > 0 {
			continue
		}
		roots = append(roots, &Package{Fset: fset, Files: files, Pkg: tp, TypesInfo: info})
	}
	return roots, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
