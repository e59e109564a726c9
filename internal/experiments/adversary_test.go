package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"activegeo/internal/measure"
)

// TestAdversaryDisabledGoldenSHA: a nil plan and the zero plan must both
// leave the audit byte-identical to the pre-adversary engine — the
// fingerprint still hashes to the pinned golden SHA-256. This is the
// regression that proves arming infrastructure cannot leak into the
// honest path.
func TestAdversaryDisabledGoldenSHA(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *measure.AdversaryPlan
	}{
		{"nil-plan", nil},
		{"zero-plan", &measure.AdversaryPlan{}},
	} {
		lab, err := NewLab(tinyAuditConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		lab.Adversary = tc.plan
		run, err := lab.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if run.AdversaryArmed {
			t.Fatalf("%s: audit reports the adversary layer armed", tc.name)
		}
		sum := sha256.Sum256([]byte(Fingerprint(run)))
		if got := hex.EncodeToString(sum[:]); got != auditGoldenSHA256 {
			t.Fatalf("%s: fingerprint sha256 = %s, want golden %s", tc.name, got, auditGoldenSHA256)
		}
	}
}

// TestAdversaryArmedAnnotations: an armed plan (even DetectOnly, with
// zero liars) switches the fingerprint's adversary annotations on, so
// armed and honest audits can never be confused.
func TestAdversaryArmedAnnotations(t *testing.T) {
	lab, err := NewLab(tinyAuditConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	lab.Adversary = &measure.AdversaryPlan{Seed: 1, DetectOnly: true}
	run, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !run.AdversaryArmed {
		t.Fatal("DetectOnly plan did not arm the audit's detection layer")
	}
	fp := Fingerprint(run)
	if !strings.Contains(fp, "|adv:") {
		t.Fatal("armed fingerprint carries no per-server adversary annotations")
	}
	if !strings.Contains(fp, "\nadversary: flagged:") {
		t.Fatal("armed fingerprint carries no adversary aggregate line")
	}
	if len(run.Inspections) != len(run.Results) {
		t.Fatalf("Inspections has %d entries for %d servers", len(run.Inspections), len(run.Results))
	}
}

// TestAdversarySweepRestoresLab: the sweep must leave the lab's plan
// and memoized audit exactly as it found them.
func TestAdversarySweepRestoresLab(t *testing.T) {
	lab, err := NewLab(tinyAuditConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	honest, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.AdversarySweep([]AttackPoint{
		{"control", measure.AdversaryPlan{Seed: 1, DetectOnly: true}},
		{"inflate", measure.AdversaryPlan{Seed: 2, Attack: measure.AttackInflate, ProxyFraction: 0.3, Aggressiveness: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if lab.Adversary != nil {
		t.Fatal("sweep left an adversary plan armed on the lab")
	}
	run, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if run != honest {
		t.Fatal("sweep dropped the lab's memoized honest audit")
	}
}

// TestAdversarySweepDeterministicAcrossConcurrency: the scored sweep —
// every audit SHA, every confusion matrix, the pooled ratios — must be
// byte-identical at any worker-pool width.
func TestAdversarySweepDeterministicAcrossConcurrency(t *testing.T) {
	matrix := []AttackPoint{
		{"control", measure.AdversaryPlan{Seed: 101, DetectOnly: true}},
		{"decoy", measure.AdversaryPlan{Seed: 102, Attack: measure.AttackDecoy, ProxyFraction: 0.3, Aggressiveness: 1, PretendSpeedKmPerMs: 70}},
		{"inflate+byz", measure.AdversaryPlan{Seed: 103, Attack: measure.AttackInflate, ProxyFraction: 0.3, Aggressiveness: 1, ByzantineFraction: 0.2}},
	}
	sweepAt := func(concurrency int) string {
		lab, err := NewLab(tinyAuditConfig(concurrency))
		if err != nil {
			t.Fatal(err)
		}
		res, err := lab.AdversarySweep(matrix)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	serial := sweepAt(1)
	if par := sweepAt(4); par != serial {
		t.Fatalf("adversary sweep diverged across concurrency:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

// TestAdversaryStreamingRearmDirties: arming the plan after an honest
// pass must dirty every row (the verdicts mean something else now), and
// a disarmed follow-up must restore the honest fingerprint.
func TestAdversaryStreamingRearmDirties(t *testing.T) {
	lab, err := NewLab(tinyAuditConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	honest := lab.StreamingAuditor(8, 2)
	if _, err := honest.Sync(context.Background(), lab.StreamSource()); err != nil {
		t.Fatal(err)
	}
	honestFP := honest.Store().Fingerprint()

	second, err := honest.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		t.Fatal(err)
	}
	if second.Audited != 0 {
		t.Fatalf("unchanged honest fleet re-audited %d servers", second.Audited)
	}

	lab.Adversary = &measure.AdversaryPlan{Seed: 9, DetectOnly: true}
	armed := lab.StreamingAuditor(8, 2)
	// Fresh auditor, fresh store: the first armed pass audits everything.
	stats, err := armed.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != stats.Total {
		t.Fatalf("armed pass audited %d of %d", stats.Audited, stats.Total)
	}
	if armed.Store().Fingerprint() == honestFP {
		t.Fatal("armed fingerprint identical to the honest one")
	}

	lab.Adversary = nil
	disarmed := lab.StreamingAuditor(8, 2)
	if _, err := disarmed.Sync(context.Background(), lab.StreamSource()); err != nil {
		t.Fatal(err)
	}
	if got := disarmed.Store().Fingerprint(); got != honestFP {
		t.Fatalf("disarmed pass did not restore the honest fingerprint:\n--- honest ---\n%s--- disarmed ---\n%s", honestFP, got)
	}
}

// TestAdversaryDetectionFloors: the pooled detection quality over the
// default attack matrix at the benchmark scale must clear the CI floors
// (precision ≥ 0.9, recall ≥ 0.8), and a serial sweep on a fresh lab
// must produce the same scored fingerprint as the 8-worker one.
// Run with -v to see the sweep's table.
func TestAdversaryDetectionFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack-matrix sweep at benchmark scale")
	}
	sweepAt := func(workers int) (*AdversaryResult, *Lab) {
		cfg := AdversaryBenchConfig()
		cfg.Concurrency = workers
		lab, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lab.AdversarySweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, lab
	}
	res, lab := sweepAt(8)
	t.Log(res.Render())
	if res.Precision < 0.9 {
		t.Errorf("pooled detection precision %.3f below the 0.9 floor", res.Precision)
	}
	if res.Recall < 0.8 {
		t.Errorf("pooled detection recall %.3f below the 0.8 floor", res.Recall)
	}
	for _, pt := range res.Points {
		if pt.Unscored > len(lab.Fleet.Servers())/4 {
			t.Errorf("%s: %d unscored servers — the attack is breaking the pipeline, not evading it", pt.Name, pt.Unscored)
		}
	}
	if serial, _ := sweepAt(1); serial.Fingerprint() != res.Fingerprint() {
		t.Errorf("serial sweep diverged from the 8-worker sweep:\n--- serial ---\n%s--- 8 workers ---\n%s", serial.Fingerprint(), res.Fingerprint())
	}
}
