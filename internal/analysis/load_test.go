package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"activegeo/internal/analysis"
)

// render flattens a load+lint result into a canonical string: package
// paths in order, file counts, and every diagnostic line.
func render(t *testing.T, pkgs []*analysis.Package) string {
	t.Helper()
	out := ""
	for _, pkg := range pkgs {
		out += fmt.Sprintf("%s %d\n", pkg.Path, len(pkg.Files))
		diags, err := analysis.RunPackage(pkg, analysis.Suite())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			out += d.String() + "\n"
		}
	}
	return out
}

// TestParallelLoadMatchesSerial: the worker-pool loader must be
// byte-identical to a serial oracle — LoadDir on each directory of
// Expand(patterns), in order — with the same packages, order and
// diagnostics, including on fixture packages that actually produce
// findings.
func TestParallelLoadMatchesSerial(t *testing.T) {
	patterns := []string{
		"internal/geo",
		"internal/cbg",
		"internal/analysis/testdata/src/errdrop",
		"internal/analysis/testdata/src/maporder",
	}
	oracleLoader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := oracleLoader.Expand(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var serial []*analysis.Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(oracleLoader.ModDir, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := oracleLoader.LoadDir(dir, oracleLoader.ModPath+"/"+filepath.ToSlash(rel))
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, pkg)
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	par, err := loader.LoadPatterns(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(t, serial), render(t, par)
	if a != b {
		t.Fatalf("parallel load differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "[errdrop]") || !strings.Contains(a, "[maporder]") {
		t.Fatalf("fixture packages produced no findings; the comparison is vacuous:\n%s", a)
	}
}

// TestParallelLoadSharedDeps: many packages importing the same heavy
// dependencies concurrently exercise the singleflight cache; the load
// must succeed and return every package exactly once.
func TestParallelLoadSharedDeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-package parallel load: skipped with -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./internal/measure", "./internal/atlasd",
		"./internal/stream", "./internal/netsim", "./internal/geoloc", "./internal/proxy")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 6 {
		t.Fatalf("loaded %d packages, want 6", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg.Path] {
			t.Fatalf("package %s loaded twice", pkg.Path)
		}
		seen[pkg.Path] = true
	}
}
