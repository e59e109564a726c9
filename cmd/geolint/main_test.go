package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSeededViolationExitsNonZero: pointing the multichecker at a
// fixture package full of violations must exit 1 and print findings —
// the make ci gate demanded by the acceptance criteria.
func TestSeededViolationExitsNonZero(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"internal/analysis/testdata/src/errdrop"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "[errdrop]") {
		t.Errorf("output does not name the analyzer:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s)") {
		t.Errorf("output does not summarize the finding count:\n%s", out.String())
	}
}

// TestTreeIsClean: the whole repository passes the suite with zero
// findings — every deliberate exception carries a reasoned directive.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint: skipped with -short")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"./..."}, &out, &errw); code != 0 {
		t.Fatalf("geolint ./... = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestListFlag: -list prints every analyzer with its doc line.
func TestListFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"detrand", "simclock", "maporder", "sharedrand", "floatexact",
		"errdrop", "lockorder", "unitflow", "goroleak"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestBadPatternExitsTwo: load failures are usage errors, not findings,
// and so are the autofix, baseline and load-parallelism flags, which
// no longer exist.
func TestBadPatternExitsTwo(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errw); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errw.String())
	}
	for _, name := range []string{"-fix", "-diff", "-baseline=b.json", "-parallel=1"} {
		errw.Reset()
		if code := run([]string{name, "internal/analysis/testdata/src/errdrop"}, &out, &errw); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (unknown flag)", name, code)
		}
		if !strings.Contains(errw.String(), "flag provided but not defined") {
			t.Errorf("%s: stderr does not report an unknown flag:\n%s", name, errw.String())
		}
	}
}

// TestJSONOutput: -json emits a machine-readable document with the
// finding count and each finding's position — the CI artifact format.
func TestJSONOutput(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-json", "internal/analysis/testdata/src/errdrop"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errw.String())
	}
	var payload struct {
		Count    int `json:"count"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &payload); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if payload.Count == 0 || payload.Count != len(payload.Findings) {
		t.Fatalf("count = %d with %d findings", payload.Count, len(payload.Findings))
	}
	for _, f := range payload.Findings {
		if f.Analyzer != "errdrop" || f.Line == 0 || f.File == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}
