// Command geolint is the repository's multichecker: it runs the
// internal/analysis suite (detrand, simclock, maporder, sharedrand,
// floatexact, errdrop, lockorder, unitflow, goroleak) over the named
// packages and exits non-zero when any invariant is violated.
//
// Usage:
//
//	geolint [flags] [packages]
//
//	-list   list the analyzers and exit
//	-json   emit findings as a JSON document (the CI artifact)
//
// Packages are go-style patterns relative to the module root
// ("./...", "./internal/geo", "internal/experiments/..."); the default
// is "./...". Deliberate exceptions are annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// alone on the line above the flagged line or trailing the flagged line
// itself; there is no blanket disable, and a malformed directive is
// itself a finding. Packages load concurrently on min(GOMAXPROCS,
// package count) workers; output is in (file, line, column, analyzer)
// order regardless. Exit status: 0 clean, 1 findings, 2 usage or load
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"activegeo/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("geolint", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(errw, "geolint: %v\n", err)
		return 2
	}
	diags, err := lintPatterns(wd, patterns, suite)
	if err != nil {
		fmt.Fprintf(errw, "geolint: %v\n", err)
		return 2
	}

	if *jsonOut {
		if err := writeJSON(out, diags); err != nil {
			fmt.Fprintf(errw, "geolint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(out, "geolint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonDiag is the stable JSON rendering of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(out io.Writer, diags []analysis.Diagnostic) error {
	payload := struct {
		Count    int        `json:"count"`
		Findings []jsonDiag `json:"findings"`
	}{Count: len(diags), Findings: []jsonDiag{}}
	for _, d := range diags {
		payload.Findings = append(payload.Findings, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// lintPatterns loads the packages and returns every finding in
// deterministic (directory, position) order.
func lintPatterns(dir string, patterns []string, suite []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, suite)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
