package experiments

import (
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/stream"
)

// tinyAuditConfig is a small-but-nontrivial lab for the determinism
// tests: big enough that the audit exercises measurement failures, data
// center groups and reclassification, small enough to run several labs
// per test.
func tinyAuditConfig(concurrency int) Config {
	return Config{
		Seed:        7,
		Anchors:     16,
		Probes:      8,
		GridResDeg:  3,
		FleetTotal:  40,
		Volunteers:  2,
		MTurkers:    4,
		Concurrency: concurrency,
	}
}

// auditFingerprint is the historical test-local name for the (now
// exported) audit fingerprint; see Fingerprint in fingerprint.go.
func auditFingerprint(run *AuditRun) string { return Fingerprint(run) }

func auditAt(t *testing.T, concurrency int) *AuditRun {
	t.Helper()
	lab, err := NewLab(tinyAuditConfig(concurrency))
	if err != nil {
		t.Fatal(err)
	}
	run, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestAuditDeterministicAcrossRuns: two fresh labs with the same seed
// must produce byte-identical audits — the bug this PR fixes was a
// shared sequential RNG that made each server's noise depend on every
// server measured before it.
func TestAuditDeterministicAcrossRuns(t *testing.T) {
	f1 := auditFingerprint(auditAt(t, 4))
	f2 := auditFingerprint(auditAt(t, 4))
	if f1 != f2 {
		t.Fatalf("same seed, same concurrency, different audits:\n--- run 1 ---\n%s--- run 2 ---\n%s", f1, f2)
	}
}

// TestAuditDeterministicAcrossConcurrency: the verdicts must be a pure
// function of the seed — a serial run and parallel runs at different
// widths all agree byte-for-byte.
func TestAuditDeterministicAcrossConcurrency(t *testing.T) {
	serial := auditFingerprint(auditAt(t, 1))
	for _, workers := range []int{2, 8} {
		par := auditFingerprint(auditAt(t, workers))
		if par != serial {
			t.Fatalf("concurrency %d diverged from serial run:\n--- serial ---\n%s--- %d workers ---\n%s",
				workers, serial, workers, par)
		}
	}
}

// TestAuditErrorAccounting: failure records must be consistent with the
// results — every recorded error belongs to a server whose region is
// empty, and the per-stage counters sum to the map size.
func TestAuditErrorAccounting(t *testing.T) {
	run := auditAt(t, 4)
	if got := run.MeasureFailures + run.LocateFailures; got != len(run.Errors) {
		t.Fatalf("failure counters sum to %d but Errors has %d entries", got, len(run.Errors))
	}
	for id, e := range run.Errors {
		if e.Err == nil {
			t.Errorf("server %s: recorded error with nil Err", id)
		}
		if e.Stage != stream.StageMeasure && e.Stage != stream.StageLocate {
			t.Errorf("server %s: unknown stage %q", id, e.Stage)
		}
		r, ok := run.byServer[id]
		if !ok {
			t.Fatalf("server %s has an error record but no result", id)
		}
		if r.Region != nil && !r.Region.Empty() {
			t.Errorf("server %s failed (%s) but has a non-empty region", id, e.Stage)
		}
		if r.VerdictRaw != assess.Uncertain {
			t.Errorf("server %s failed (%s) but raw verdict is %s, want uncertain", id, e.Stage, r.VerdictRaw)
		}
	}
}
