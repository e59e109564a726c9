package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"activegeo/internal/experiments"
)

func readReport(t *testing.T, path string) report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// requireChecks asserts the report holds exactly the wanted checks, in
// order, each passing with its bound.
func requireChecks(t *testing.T, r report, want []check) {
	t.Helper()
	if len(r.Checks) != len(want) {
		t.Fatalf("%d checks, want %d: %+v", len(r.Checks), len(want), r.Checks)
	}
	for i, w := range want {
		if c := r.Checks[i]; c.Name != w.Name || c.Bound != w.Bound || !c.Pass {
			t.Errorf("check %d = %+v, want %s with bound %g passing", i, c, w.Name, w.Bound)
		}
	}
}

// TestRunWritesFailedCheck: a failed check does not stop the report
// from being written; it is recorded with pass false and run fails.
func TestRunWritesFailedCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	err := run("fake", func(r *report) error {
		r.Metrics["answer"] = 42
		r.check("under_max", 1, 2, true)
		r.check("over_max", 3, 2, false)
		return nil
	}, out)
	if err == nil {
		t.Fatal("run succeeded with a failed check")
	}
	r := readReport(t, out)
	if r.Mode != "fake" || r.Metrics["answer"] != 42 {
		t.Errorf("mode %q metrics %v", r.Mode, r.Metrics)
	}
	if r.Env.Cores < 1 || r.Env.GOMAXPROCS < 1 || r.Env.GoVersion == "" || r.Env.Revision == "" {
		t.Errorf("incomplete env block: %+v", r.Env)
	}
	want := []check{{"under_max", 1, 2, true}, {"over_max", 3, 2, false}}
	if len(r.Checks) != len(want) || r.Checks[0] != want[0] || r.Checks[1] != want[1] {
		t.Errorf("checks %+v, want %+v", r.Checks, want)
	}
}

// TestRunPipelineErrorWritesNothing: an error from the pipeline itself
// is returned as is and leaves no report behind.
func TestRunPipelineErrorWritesNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	boom := errors.New("boom")
	if err := run("fake", func(*report) error { return boom }, out); !errors.Is(err, boom) {
		t.Fatalf("run = %v, want %v", err, boom)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("report written after a pipeline error (stat: %v)", err)
	}
}

func TestAtlasdRecordsEveryCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "atlasd.json")
	if err := run("atlasd", runAtlasd, out); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	requireChecks(t, r, []check{
		{Name: "transcript_mismatch"},
		{Name: "ledger_dropped_max"},
		{Name: "ledger_phantom_max"},
		{Name: "model_fits_max", Bound: r.Metrics["landmarks"] + 1},
		{Name: "drain_dropped_max"},
		{Name: "drain_phantom_max"},
	})
	if r.Metrics["landmarks"] < 1 || r.Points != nil {
		t.Errorf("landmarks %g, points %v", r.Metrics["landmarks"], r.Points)
	}
}

func TestFaultsRecordsEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the robustness sweep over the quick fleet")
	}
	out := filepath.Join(t.TempDir(), "faults.json")
	if err := run("faults", runFaults, out); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	var want []check
	for _, name := range []string{"loss_0.00", "loss_0.02", "loss_0.05", "loss_0.10"} {
		want = append(want, check{Name: name + "_tally_drift_max", Bound: experiments.RobustnessTallyTolerance})
	}
	requireChecks(t, r, want)
	points, ok := r.Points.([]any)
	if !ok || len(points) != len(experiments.DefaultLossSweep) {
		t.Fatalf("points %v, want one per loss rate", r.Points)
	}
	tally := points[0].(map[string]any)["tally"].(map[string]any)
	if tally["credible"] != 166.0 || tally["uncertain"] != 25.0 || tally["false"] != 161.0 {
		t.Errorf("fault-free tally %v, want 166/25/161", tally)
	}
}
