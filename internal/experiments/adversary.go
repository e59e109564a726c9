package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// The adversary sweep: run the full audit under each point of an attack
// matrix (attack type × aggressiveness × Byzantine-landmark fraction)
// and score the detection layer's verdicts against the plan's ground
// truth. The paper's §7–§8 threat — an adversary forging delays to fake
// a location — becomes a measurable quantity: how often does the
// manipulation-suspected verdict hit actual liars (precision), and how
// many liars does it catch (recall)? TestAdversaryDetectionFloors pins
// CI floors on both.

// AdversaryBenchConfig is the lab scale the CI detection floors are
// measured at: big enough that the honest server population
// calibrates the inspection gates and every attack has a statistical
// signature, small enough that the nine-point sweep stays CI-friendly.
func AdversaryBenchConfig() Config {
	return Config{
		Seed:       7,
		Anchors:    48,
		Probes:     64,
		GridResDeg: 2,
		FleetTotal: 120,
		Volunteers: 2,
		MTurkers:   4,
	}
}

// AttackPoint is one cell of the attack matrix.
type AttackPoint struct {
	Name string
	Plan measure.AdversaryPlan
}

// DefaultAttackMatrix is the matrix the CI floors are enforced on:
// every proxy attack at full and blended aggressiveness, Byzantine
// landmarks alone and mixed in, plus an all-honest control point that
// charges false positives against precision.
func DefaultAttackMatrix() []AttackPoint {
	return []AttackPoint{
		{"control", measure.AdversaryPlan{Seed: 101, DetectOnly: true}},
		{"decoy-full", measure.AdversaryPlan{Seed: 102, Attack: measure.AttackDecoy, ProxyFraction: 0.3, Aggressiveness: 1, PretendSpeedKmPerMs: 70}},
		{"decoy-blend+byz", measure.AdversaryPlan{Seed: 103, Attack: measure.AttackDecoy, ProxyFraction: 0.3, Aggressiveness: 0.7, PretendSpeedKmPerMs: 70, ByzantineFraction: 0.12}},
		{"inflate-full", measure.AdversaryPlan{Seed: 104, Attack: measure.AttackInflate, ProxyFraction: 0.3, Aggressiveness: 1}},
		{"inflate-blend+byz", measure.AdversaryPlan{Seed: 105, Attack: measure.AttackInflate, ProxyFraction: 0.3, Aggressiveness: 0.7, ByzantineFraction: 0.2}},
		{"deflate-full+byz", measure.AdversaryPlan{Seed: 106, Attack: measure.AttackDeflate, ProxyFraction: 0.3, Aggressiveness: 1, ByzantineFraction: 0.12}},
		{"deflate-blend", measure.AdversaryPlan{Seed: 107, Attack: measure.AttackDeflate, ProxyFraction: 0.3, Aggressiveness: 0.85}},
		{"delay-full", measure.AdversaryPlan{Seed: 108, Attack: measure.AttackDelay, ProxyFraction: 0.3, Aggressiveness: 1}},
		{"byzantine-only", measure.AdversaryPlan{Seed: 109, ByzantineFraction: 0.2}},
	}
}

// AdversaryPoint is one matrix cell's scored outcome.
type AdversaryPoint struct {
	Name string
	Plan measure.AdversaryPlan

	// Proxy-side confusion matrix: ManipulationSuspected vs the plan's
	// LyingProxy ground truth, over servers that produced a verdict.
	// Unscored counts servers whose pipeline failed outright — a liar
	// that never measured left nothing to detect (or clear).
	TP       int
	FP       int
	FN       int
	TN       int
	Unscored int

	// Landmark-side confusion matrix: cross-validation flags vs the
	// plan's ByzantineLandmark ground truth, over all anchors.
	LandmarkTP int
	LandmarkFP int
	LandmarkFN int

	// Audit aggregates at this point.
	SuspectedServers     int
	FlaggedLandmarks     int
	ExcludedMeasurements int

	// AuditSHA is the SHA-256 of the full audit fingerprint at this
	// point — the cross-concurrency determinism check compares these.
	AuditSHA string
}

// AdversaryResult is the scored sweep.
type AdversaryResult struct {
	Points []AdversaryPoint

	// Pooled detection quality over the whole matrix, proxies and
	// landmarks together — the numbers the CI floors gate on.
	Precision float64
	Recall    float64
	// Per-side pools, for diagnosis.
	ProxyPrecision, ProxyRecall       float64
	LandmarkPrecision, LandmarkRecall float64
}

// AdversarySweep audits the fleet under every matrix point (the default
// matrix when nil) and scores detection against ground truth. The
// lab's adversary plan and memoized audit are restored afterwards, so
// the sweep can run against any lab without disturbing it.
func (l *Lab) AdversarySweep(matrix []AttackPoint) (*AdversaryResult, error) {
	if matrix == nil {
		matrix = DefaultAttackMatrix()
	}
	prevPlan := l.Adversary
	prevAudit := l.audit
	defer func() {
		l.Adversary = prevPlan
		l.audit = prevAudit
	}()

	res := &AdversaryResult{}
	span := l.Telemetry.StartStage("adversary.sweep")
	defer span.End()
	for pi := range matrix {
		plan := matrix[pi].Plan
		l.Adversary = &plan
		l.audit = nil
		run, err := l.Audit()
		if err != nil {
			return nil, fmt.Errorf("experiments: adversary audit at %s: %w", matrix[pi].Name, err)
		}
		res.Points = append(res.Points, l.scoreAdversaryPoint(matrix[pi].Name, &plan, run))
		l.Telemetry.Progress("adversary.sweep", pi+1, len(matrix))
	}

	var tp, fp, fn, ltp, lfp, lfn int
	for _, pt := range res.Points {
		tp += pt.TP
		fp += pt.FP
		fn += pt.FN
		ltp += pt.LandmarkTP
		lfp += pt.LandmarkFP
		lfn += pt.LandmarkFN
	}
	res.ProxyPrecision = ratio(tp, tp+fp)
	res.ProxyRecall = ratio(tp, tp+fn)
	res.LandmarkPrecision = ratio(ltp, ltp+lfp)
	res.LandmarkRecall = ratio(ltp, ltp+lfn)
	res.Precision = ratio(tp+ltp, tp+ltp+fp+lfp)
	res.Recall = ratio(tp+ltp, tp+ltp+fn+lfn)
	return res, nil
}

// scoreAdversaryPoint compares one audited matrix point against the
// plan's ground truth.
func (l *Lab) scoreAdversaryPoint(name string, plan *measure.AdversaryPlan, run *AuditRun) AdversaryPoint {
	pt := AdversaryPoint{
		Name:                 name,
		Plan:                 *plan,
		SuspectedServers:     run.SuspectedServers,
		FlaggedLandmarks:     len(run.FlaggedLandmarks),
		ExcludedMeasurements: run.ExcludedMeasurements,
	}
	for _, r := range run.Results {
		if _, failed := run.Errors[r.ServerID]; failed {
			pt.Unscored++
			continue
		}
		lying := plan.LyingProxy(netsim.HostID(r.ServerID))
		switch {
		case lying && r.ManipulationSuspected:
			pt.TP++
		case lying:
			pt.FN++
		case r.ManipulationSuspected:
			pt.FP++
		default:
			pt.TN++
		}
	}
	for _, lm := range l.Cons.Anchors() {
		byz := plan.ByzantineLandmark(lm.Host.ID)
		flagged := run.Landmarks.IsFlagged(lm.Host.ID)
		switch {
		case byz && flagged:
			pt.LandmarkTP++
		case byz:
			pt.LandmarkFN++
		case flagged:
			pt.LandmarkFP++
		}
	}
	sum := sha256.Sum256([]byte(Fingerprint(run)))
	pt.AuditSHA = hex.EncodeToString(sum[:])
	return pt
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// Fingerprint serializes everything observable about the sweep — one
// line per point with the plan signature, the full confusion matrices
// and the audit SHA, then the pooled scores. Two sweeps are identical
// iff their fingerprints are byte-equal; the determinism tests compare
// them across concurrency settings.
func (r *AdversaryResult) Fingerprint() string {
	var b strings.Builder
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%s|sig:%016x|proxy:%d/%d/%d/%d|unscored:%d|lm:%d/%d/%d|sus:%d|flag:%d|excl:%d|%s\n",
			pt.Name, pt.Plan.Signature(), pt.TP, pt.FP, pt.FN, pt.TN, pt.Unscored,
			pt.LandmarkTP, pt.LandmarkFP, pt.LandmarkFN,
			pt.SuspectedServers, pt.FlaggedLandmarks, pt.ExcludedMeasurements, pt.AuditSHA)
	}
	fmt.Fprintf(&b, "pooled: precision:%.6f recall:%.6f proxy:%.6f/%.6f landmark:%.6f/%.6f\n",
		r.Precision, r.Recall, r.ProxyPrecision, r.ProxyRecall, r.LandmarkPrecision, r.LandmarkRecall)
	return b.String()
}

// Render formats the sweep for the cmd layer.
func (r *AdversaryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adversary sweep | detection over %d attack points (pooled precision %.3f, recall %.3f):\n",
		len(r.Points), r.Precision, r.Recall)
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "  %-18s proxies tp:%-3d fp:%-3d fn:%-3d tn:%-3d  landmarks tp:%-2d fp:%-2d fn:%-2d  excluded:%d\n",
			pt.Name, pt.TP, pt.FP, pt.FN, pt.TN, pt.LandmarkTP, pt.LandmarkFP, pt.LandmarkFN, pt.ExcludedMeasurements)
	}
	fmt.Fprintf(&b, "  proxy precision %.3f recall %.3f | landmark precision %.3f recall %.3f\n",
		r.ProxyPrecision, r.ProxyRecall, r.LandmarkPrecision, r.LandmarkRecall)
	return b.String()
}
