package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/refimpl"
)

// quickAuditGoldenSHA256 pins the QuickConfig audit fingerprint, the
// same value the bench module's audit-quick and stream-churn workloads
// pin.
const quickAuditGoldenSHA256 = "6020052eab5a3ddd629d37922f33437037d3f45be007aec1ba825ab81740bf08"

// TestQuickAuditGolden: the quick-fleet audit is byte-identical on one
// worker and on GOMAXPROCS workers, and matches the pinned fingerprint
// and the 166/25/161 tally.
func TestQuickAuditGolden(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := QuickConfig()
		cfg.Concurrency = workers
		lab, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := lab.Audit()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(Fingerprint(run)))
		if got := hex.EncodeToString(sum[:]); got != quickAuditGoldenSHA256 {
			t.Errorf("%d workers: fingerprint SHA-256 %s, want %s", workers, got, quickAuditGoldenSHA256)
		}
		tally := assess.Tabulate(run.Results)
		if got := [3]int{tally.Credible, tally.Uncertain, tally.False}; got != [3]int{166, 25, 161} {
			t.Errorf("%d workers: tally credible/uncertain/false %v, want 166/25/161", workers, got)
		}
	}
}

// TestQuickLocateMatchesReference: on the quick lab's own measurement
// vectors, every production algorithm returns exactly the region of its
// pre-kernel twin in internal/refimpl, with no boundary-tie allowance.
func TestQuickLocateMatchesReference(t *testing.T) {
	l := lab(t)
	const nTargets = 3
	if len(l.Crowd) < nTargets {
		t.Fatalf("need %d crowd hosts, lab has %d", nTargets, len(l.Crowd))
	}
	targets := make([][]geoloc.Measurement, nTargets)
	for i := range targets {
		rng := rand.New(rand.NewSource(int64(77 + i)))
		targets[i] = measure.Measurements(l.Crowd[i].MeasureAllAnchors(l.Cons, rng))
		if len(targets[i]) == 0 {
			t.Fatalf("crowd host %d produced no measurements", i)
		}
	}

	model := l.Spotter.Model()
	pairs := []struct{ ref, prod geoloc.Algorithm }{
		{&refimpl.CBG{Env: l.Env, Cal: l.CBG.Calibration()}, l.CBG},
		{&refimpl.CBGPP{Env: l.Env, Cal: l.CBGpp.Calibration()}, l.CBGpp},
		{&refimpl.Octant{Env: l.Env, Cal: l.Octant.Calibration()}, l.Octant},
		{&refimpl.Spotter{Env: l.Env, Model: model}, l.Spotter},
		{&refimpl.Hybrid{Env: l.Env, Model: model}, l.Hybrid},
	}
	for _, p := range pairs {
		diff := 0
		for _, ms := range targets {
			want, err := p.ref.Locate(ms)
			if err != nil {
				t.Fatalf("%s reference: %v", p.ref.Name(), err)
			}
			got, err := p.prod.Locate(ms)
			if err != nil {
				t.Fatalf("%s: %v", p.prod.Name(), err)
			}
			onlyWant, onlyGot := want.Clone(), got.Clone()
			onlyWant.SubtractWith(got)
			onlyGot.SubtractWith(want)
			diff += onlyWant.Count() + onlyGot.Count()
		}
		if diff != 0 {
			t.Errorf("%s: regions differ from the reference by %d cells over %d targets", p.prod.Name(), diff, nTargets)
		}
	}
}
