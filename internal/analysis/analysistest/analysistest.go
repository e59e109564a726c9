// Package analysistest runs analyzers over fixture packages and checks
// their findings against // want comments, mirroring the x/tools
// package of the same name on the stdlib-only framework.
//
// A fixture is one directory under testdata/src/<name>/ containing a
// single package. Lines that must be flagged carry a trailing comment
//
//	code() // want "regexp" "another regexp"
//
// with one quoted regexp per expected diagnostic on that line. The run
// fails on any missing or unexpected diagnostic. Allow directives in
// fixtures are honored exactly as in production, so suppression is
// testable: a line whose finding is suppressed simply carries no want.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"activegeo/internal/analysis"
)

// wantRe matches one quoted regexp in a want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one expected diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture directory as import path fixturePath, applies
// the analyzers, and diffs diagnostics against the fixture's want
// comments. fixturePath is what Pass.Path reports, so scope-sensitive
// analyzers can be pointed at (or away from) the fixture.
func Run(t *testing.T, dir, fixturePath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags, pkg := load(t, dir, fixturePath, analyzers)
	wants := collectWants(t, pkg)
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func matchWant(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants parses the fixture's // want comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// Findings loads a fixture and returns the raw diagnostics — for tests
// that assert on counts or exit behaviour rather than want comments.
func Findings(t *testing.T, dir, fixturePath string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	diags, _ := load(t, dir, fixturePath, analyzers)
	return diags
}

// load type-checks the fixture and runs the analyzers over it,
// returning the diagnostics and the loaded package whose comments
// carry the want expectations.
func load(t *testing.T, dir, fixturePath string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, fixturePath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	return diags, pkg
}
