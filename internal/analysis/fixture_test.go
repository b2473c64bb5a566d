package analysis

// The fixture harness is a small clone of x/tools' analysistest: each
// fixture package under testdata/src (its own module, lintfixtures, so the
// main module never builds it) annotates the lines it expects findings on
// with `// want "regex"` comments, and runFixture asserts an exact match —
// every diagnostic matched by a want on its line, every want consumed.

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<rel>/... and checks analyzer a against the
// fixture's want annotations. It returns the diagnostics.
func runFixture(t *testing.T, a *Analyzer, rel string) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src")
	pkgs, err := Load(dir, "./"+rel+"/...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", rel)
	}
	diags, err := Run([]*Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, rel, err)
	}
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		if !consumeWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
	return diags
}

func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, pat := range quotedStrings(t, pos, text) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// quotedStrings peels the sequence of Go-quoted strings in a want comment.
func quotedStrings(t *testing.T, pos token.Position, text string) []string {
	t.Helper()
	var out []string
	rest := strings.TrimSpace(text)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment at %q: %v", pos, rest, err)
		}
		s, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: unquote %q: %v", pos, q, err)
		}
		out = append(out, s)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return out
}

func consumeWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
