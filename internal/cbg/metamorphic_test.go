package cbg

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
)

// TestLocateMetamorphic: adding a measurement never grows a CBG region,
// and scaling every RTT by a factor ≥ 1 never shrinks it. Every disk is
// monotone in its RTT, so an added disk can only cut the intersection
// and longer RTTs can only widen it. The added measurements are each
// city's vector one landmark at a time, then repeats of landmarks
// already in it at a larger and a smaller RTT. The one exception is
// geoloc.Env.ApplyExclusions' sea fallback (algtest.SeaFallback): when
// the smaller region has no land cell left, its sea cells are returned
// in place of the larger region's land cells. Those pairs are counted,
// not checked.
func TestLocateMetamorphic(t *testing.T) {
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, cal)
	locate := func(ms []geoloc.Measurement) *grid.Region {
		t.Helper()
		r, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rng := rand.New(rand.NewSource(71))
	cities := algtest.TestCities()
	shrinks, located, sea := 0, 0, 0
	for _, name := range algtest.CityNames() {
		ms := algtest.MeasureTarget(t, cons, "meta-cbg-"+name, cities[name], 25, rng)
		for _, m := range ms[:4] {
			m.RTTms *= []float64{1.5, 0.8}[rng.Intn(2)]
			ms = append(ms, m)
		}
		prev := locate(ms[:1])
		for k := 2; k <= len(ms); k++ {
			next := locate(ms[:k])
			switch {
			case algtest.SeaFallback(env, prev, next):
				sea++
			case algtest.Growth(prev, next) != 0:
				t.Errorf("%s: measurement %d (%s, %.2f ms) grew the region by %d cells",
					name, k, ms[k-1].LandmarkID, ms[k-1].RTTms, algtest.Growth(prev, next))
			case next.Count() < prev.Count():
				shrinks++
			}
			prev = next
		}
		base := locate(ms)
		if !base.Empty() {
			located++
		}
		for _, f := range []float64{1, 1.01, 1.25, 2, 4} {
			scaled := locate(algtest.ScaleRTTs(ms, f))
			if algtest.SeaFallback(env, scaled, base) {
				sea++
			} else if n := algtest.Growth(scaled, base); n != 0 {
				t.Errorf("%s: scaling every RTT by %v shrank the region by %d cells", name, f, n)
			}
		}
	}
	t.Logf("%d added measurements shrank a region, %d pairs hit the sea fallback; %d of %d cities located", shrinks, sea, located, len(cities))
	if shrinks == 0 || located == 0 {
		t.Errorf("vacuous: %d shrinking additions, %d cities located", shrinks, located)
	}
}
