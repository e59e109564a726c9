package refimpl

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/hybrid"
	"activegeo/internal/octant"
	"activegeo/internal/spotter"
)

var (
	calOnce   sync.Once
	cbgCal    *cbg.Calibration
	ppCal     *cbg.Calibration
	octCal    *octant.Calibration
	spotModel *spotter.Model
)

func fixtures(t testing.TB) (*atlas.Constellation, *geoloc.Env) {
	t.Helper()
	cons, env := algtest.Fixture(t)
	calOnce.Do(func() {
		var err error
		if cbgCal, err = cbg.Calibrate(cons, cbg.Options{}); err != nil {
			panic(err)
		}
		if ppCal, err = cbgpp.Calibrate(cons, cbgpp.Options{}); err != nil {
			panic(err)
		}
		if octCal, err = octant.Calibrate(cons); err != nil {
			panic(err)
		}
		if spotModel, err = spotter.Calibrate(cons); err != nil {
			panic(err)
		}
	})
	return cons, env
}

// diffCells returns the cells present in exactly one of the two regions.
func diffCells(a, b *grid.Region) (onlyA, onlyB []int) {
	a.Each(func(i int) {
		if !b.Contains(i) {
			onlyA = append(onlyA, i)
		}
	})
	b.Each(func(i int) {
		if !a.Contains(i) {
			onlyB = append(onlyB, i)
		}
	})
	return onlyA, onlyB
}

// requireEquivalent asserts the fast-path region matches the reference
// region exactly, or differs only in at most tol boundary-tie cells,
// each within one cell diagonal of the other region. The tolerance
// covers the two documented sources of ulp-level divergence: the
// acos(dot) vs haversine formulation, and the float32 quantization of
// the cached distance fields (≈2 m at antipodal range, against cells
// ≥100 km across).
func requireEquivalent(t *testing.T, g *grid.Grid, label string, ref, fast *grid.Region, tol int) {
	t.Helper()
	onlyRef, onlyFast := diffCells(ref, fast)
	nd := len(onlyRef) + len(onlyFast)
	if nd == 0 {
		return
	}
	if nd > tol {
		t.Errorf("%s: %d cells only in reference, %d only in kernel (ref %d cells, kernel %d cells; tolerance %d)",
			label, len(onlyRef), len(onlyFast), ref.Count(), fast.Count(), tol)
		return
	}
	diag := 1.5 * grid.KmPerDeg * g.Resolution()
	for _, c := range onlyRef {
		if d := fast.DistanceToPointKm(g.Center(c)); d > diag {
			t.Errorf("%s: reference-only cell %d is %.0f km from the kernel region (max %.0f)", label, c, d, diag)
		}
	}
	for _, c := range onlyFast {
		if d := ref.DistanceToPointKm(g.Center(c)); d > diag {
			t.Errorf("%s: kernel-only cell %d is %.0f km from the reference region (max %.0f)", label, c, d, diag)
		}
	}
	t.Logf("%s: %d boundary-tie cell(s) within tolerance %d", label, nd, tol)
}

// pair is one (reference, kernel) implementation of the same algorithm.
type pair struct {
	name string
	ref  geoloc.Algorithm
	fast geoloc.Algorithm
	// tol returns the allowed boundary-tie cell count given the
	// reference region size.
	tol func(refCount int) int
}

func exact(int) int { return 2 }

func TestKernelEquivalence(t *testing.T) {
	cons, env := fixtures(t)
	pairs := []pair{
		{
			name: "CBG",
			ref:  &CBG{Env: env, Cal: cbgCal},
			fast: cbg.New(env, cbgCal),
			tol:  exact,
		},
		{
			name: "CBG++",
			ref:  &CBGPP{Env: env, Cal: ppCal},
			fast: cbgpp.New(env, ppCal, cbgpp.Options{}),
			tol:  exact,
		},
		{
			name: "Quasi-Octant",
			ref:  &Octant{Env: env, Cal: octCal},
			fast: octant.New(env, octCal),
			tol:  exact,
		},
		{
			name: "Hybrid",
			ref:  &Hybrid{Env: env, Model: spotModel},
			fast: hybrid.New(env, spotModel),
			tol:  exact,
		},
		{
			// Spotter's 95% mass cutoff sits on a sorted cumulative sum,
			// so a near-tie at the cutoff can move a few trailing cells;
			// scale the tolerance with the region.
			name: "Spotter",
			ref:  &Spotter{Env: env, Model: spotModel},
			fast: spotter.New(env, spotModel),
			tol:  func(n int) int { return 3 + n/100 },
		},
	}

	cities := algtest.TestCities()
	names := make([]string, 0, len(cities))
	for n := range cities {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, seed := range []int64{7, 19} {
		for _, city := range names {
			rng := rand.New(rand.NewSource(seed))
			id := fmt.Sprintf("refimpl-eq-%s-%d", city, seed)
			ms := algtest.MeasureTarget(t, cons, id, cities[city], 25, rng)
			if len(ms) < 5 {
				t.Fatalf("too few measurements for %s", id)
			}
			for _, p := range pairs {
				label := fmt.Sprintf("%s/%s/seed%d", p.name, city, seed)
				want, err := p.ref.Locate(ms)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := p.fast.Locate(ms)
				if err != nil {
					t.Fatalf("%s: kernel: %v", label, err)
				}
				requireEquivalent(t, env.Grid, label, want, got, p.tol(want.Count()))
			}
		}
	}
}

// TestReferenceNames pins the non-empty Name() strings that label the
// failures of experiments.TestQuickLocateMatchesReference.
func TestReferenceNames(t *testing.T) {
	_, env := fixtures(t)
	for _, a := range []geoloc.Algorithm{
		&CBG{Env: env, Cal: cbgCal},
		&CBGPP{Env: env, Cal: ppCal},
		&Octant{Env: env, Cal: octCal},
		&Hybrid{Env: env, Model: spotModel},
		&Spotter{Env: env, Model: spotModel},
	} {
		if a.Name() == "" {
			t.Fatalf("%T: empty name", a)
		}
	}
}
