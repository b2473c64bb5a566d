// rdfviews-lint is the multichecker for the repo's invariant analyzers
// (internal/analysis): cancelcheck, batchlease, snappin, ctxflow and retired.
//
// It runs two ways:
//
//	rdfviews-lint ./...                     # standalone, loads source directly
//	go vet -vettool=$(which rdfviews-lint) ./...   # vet-driven (CI gate)
//
// The vet-driven mode speaks the go command's vettool protocol with no
// dependency on golang.org/x/tools: it answers -V=full with a content-hashed
// version line (vet's cache key), answers -flags with an empty flag set, and
// treats a single *.cfg argument as vet's per-package JSON config, type-
// checking the package from the export data the go command already built.
// Intentional exceptions are annotated //lint:ignore <analyzer> <reason> on
// the line above the finding; see the README's correctness-tooling section.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rdfviews/internal/analysis"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			// No tool-specific flags: vet forwards only the .cfg path.
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args))
}

// printVersion emits the version line the go command hashes into vet's
// action cache key. The build ID is the binary's own content hash, so
// rebuilding the tool invalidates cached vet results.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", name, h.Sum(nil))
}

// standalone loads packages from source (internal/analysis's offline loader)
// and reports findings on stdout.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := analysis.Run(analysis.All(), pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rdfviews-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig is the per-package JSON the go command writes for vettools; the
// field set mirrors x/tools' unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdfviews-lint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rdfviews-lint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts file to exist even though these
	// analyzers export none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "rdfviews-lint: writing facts: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, no diagnostics wanted
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "rdfviews-lint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	exp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return exp.Import(importPath)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "rdfviews-lint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	pkg := &analysis.Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}
	diags, err := analysis.Run(analysis.All(), []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdfviews-lint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
