package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
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
// CBG++ is also held to its twin on the quick fleet's honest two-phase
// vectors, on both sides of its strict-first exit: the first 48
// servers, whose bestline disks mostly share a cell, plus every server
// whose bestline disks share none. CBG is held to its twin on every
// two-phase vector.
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
		if diff := referenceDiff(t, p.ref, p.prod, targets); diff != 0 {
			t.Errorf("%s: regions differ from the reference by %d cells over %d targets", p.prod.Name(), diff, nTargets)
		}
	}

	var all, vecs [][]geoloc.Measurement
	var strict, counted int
	for i, s := range l.Fleet.Servers() {
		rng := rand.New(rand.NewSource(measure.StreamSeed(l.Cfg.Seed, s.Host.ID)))
		res, err := measure.ProxiedTwoPhase(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, rng)
		if err != nil {
			continue
		}
		ms := res.Measurements()
		all = append(all, ms)
		shared := bestlinesShareCell(l, ms)
		if shared && i >= 48 {
			continue
		}
		if shared {
			strict++
		} else {
			counted++
		}
		vecs = append(vecs, ms)
	}
	t.Logf("CBG++ on %d of %d two-phase vectors: %d with a shared bestline cell, %d without", len(vecs), len(all), strict, counted)
	if strict == 0 || counted == 0 {
		t.Errorf("two-phase vectors: %d with a shared bestline cell and %d without, want both", strict, counted)
	}
	if diff := referenceDiff(t, pairs[1].ref, l.CBGpp, vecs); diff != 0 {
		t.Errorf("CBG++: regions differ from the reference by %d cells over %d two-phase vectors", diff, len(vecs))
	}
	// CBG intersects disk constraints, which always keep a landmark's own
	// cell, while the reference intersects haversine caps; the two agree
	// only while every padded radius reaches that cell's center
	// (TestLandmarkCellWithinPad). Every vector checks it.
	if diff := referenceDiff(t, pairs[0].ref, l.CBG, all); diff != 0 {
		t.Errorf("CBG: regions differ from the reference by %d cells over %d two-phase vectors", diff, len(all))
	}
}

// referenceDiff returns the number of cells by which prod's regions
// differ from ref's over the vectors, locating on GOMAXPROCS workers.
func referenceDiff(t *testing.T, ref, prod geoloc.Algorithm, vecs [][]geoloc.Measurement) int {
	t.Helper()
	diffs := make([]int, len(vecs))
	errs := make([]error, len(vecs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(vecs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(vecs); i = int(next.Add(1)) - 1 {
				want, err := ref.Locate(vecs[i])
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", ref.Name(), err)
					continue
				}
				got, err := prod.Locate(vecs[i])
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", prod.Name(), err)
					continue
				}
				onlyWant, onlyGot := want.Clone(), got.Clone()
				onlyWant.SubtractWith(got)
				onlyGot.SubtractWith(want)
				diffs[i] = onlyWant.Count() + onlyGot.Count()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, d := range diffs {
		diff += d
	}
	return diff
}

// bestlinesShareCell reports whether the padded CBG++ bestline disks of
// ms share a grid cell, the condition of CBG++'s strict-first exit.
func bestlinesShareCell(l *Lab, ms []geoloc.Measurement) bool {
	cal, pad := l.CBGpp.Calibration(), l.Env.PadKm()
	var cs []grid.Constraint
	for _, m := range geoloc.Collapse(ms) {
		maxKm := cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()) + pad
		cs = append(cs, grid.Disk(l.Env.MasksFor(m.LandmarkID, m.Landmark), l.Env.Grid.CellAt(m.Landmark), maxKm))
	}
	return !l.Env.Grid.Intersect(cs).Empty()
}

// TestMaxDistanceWithinBaseline: on every landmark of the quick lab,
// under the CBG and the CBG++ calibration, the bestline distance never
// exceeds the baseline distance at the same one-way time, from 0 ms to
// past the slowline's 237 ms. Each bestline disk then lies inside its
// baseline disk, which CBG++'s strict-first exit rests on
// (cbgpp.CBGPP.LocateDetailed). Probes use the pooled line.
func TestMaxDistanceWithinBaseline(t *testing.T) {
	l := lab(t)
	landmarks := slices.Concat(l.Cons.Anchors(), l.Cons.Probes())
	for _, cal := range []*cbg.Calibration{l.CBG.Calibration(), l.CBGpp.Calibration()} {
		for _, lm := range landmarks {
			for i := 0; i <= 800; i++ {
				ms := float64(i) / 2
				if d, lim := cal.MaxDistanceKm(lm.Host.ID, ms), geo.MaxDistanceKm(ms, geo.BaselineSpeedKmPerMs); !(d <= lim) {
					t.Fatalf("%s at %.1f ms: %v km, baseline %v km", lm.Host.ID, ms, d, lim)
				}
			}
		}
	}
}
