package cbgpp

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
)

// bestlinesShareCell reports whether the bestline disks of ms share a
// cell, the condition of the strict-first exit in LocateDetailed.
func (c *CBGPP) bestlinesShareCell(ms []geoloc.Measurement) bool {
	best, _ := c.disks(geoloc.Collapse(ms))
	return !c.env.Grid.Intersect(best).Empty()
}

// TestLocateMetamorphic: while the bestline disks share a cell, adding
// a measurement never grows a CBG++ region, and scaling every RTT by a
// factor ≥ 1 never shrinks it. The region is then the plain
// intersection of the bestline disks, as in CBG. Once the disks share
// no cell, the largest-consistent-subset search can trade one disk for
// another and an added measurement can grow the region (ROADMAP item
// 4), so additions that leave the strict case are only counted, as are
// pairs that hit geoloc.Env.ApplyExclusions' sea fallback
// (algtest.SeaFallback).
func TestLocateMetamorphic(t *testing.T) {
	cons, env := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	locate := func(ms []geoloc.Measurement) *grid.Region {
		t.Helper()
		r, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rng := rand.New(rand.NewSource(72))
	cities := algtest.TestCities()
	checked, left, sea := 0, 0, 0
	for _, name := range algtest.CityNames() {
		ms := algtest.MeasureTarget(t, cons, "meta-cbgpp-"+name, cities[name], 25, rng)
		for _, m := range ms[:4] {
			m.RTTms *= []float64{1.5, 0.8}[rng.Intn(2)]
			ms = append(ms, m)
		}
		prev := locate(ms[:1])
		for k := 2; k <= len(ms); k++ {
			next := locate(ms[:k])
			switch {
			case !alg.bestlinesShareCell(ms[:k]):
				left++
			case algtest.SeaFallback(env, prev, next):
				sea++
			case algtest.Growth(prev, next) != 0:
				t.Errorf("%s: measurement %d (%s, %.2f ms) grew the region by %d cells",
					name, k, ms[k-1].LandmarkID, ms[k-1].RTTms, algtest.Growth(prev, next))
			default:
				checked++
			}
			prev = next
		}
		if !alg.bestlinesShareCell(ms) {
			continue
		}
		base := locate(ms)
		for _, f := range []float64{1, 1.01, 1.25, 2, 4} {
			scaled := algtest.ScaleRTTs(ms, f)
			if !alg.bestlinesShareCell(scaled) {
				t.Errorf("%s: scaling every RTT by %v left no shared bestline cell", name, f)
			}
			r := locate(scaled)
			if algtest.SeaFallback(env, r, base) {
				sea++
			} else if n := algtest.Growth(r, base); n != 0 {
				t.Errorf("%s: scaling every RTT by %v shrank the region by %d cells", name, f, n)
			}
		}
	}
	t.Logf("%d additions checked in the strict case, %d left it, %d pairs hit the sea fallback", checked, left, sea)
	if checked == 0 {
		t.Error("no addition kept the bestline disks sharing a cell")
	}
}
