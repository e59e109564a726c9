package cbgpp

import (
	"fmt"
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

func newAlg(t testing.TB, opts Options) (*CBGPP, *geoloc.Env) {
	t.Helper()
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	return New(env, cal, opts), env
}

func TestCoverageAcrossWorld(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(61))

	misses := 0
	total := 0
	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "cbgpp-"+name, loc, 25, rng)
		if len(ms) < 10 {
			t.Fatalf("%s: only %d measurements", name, len(ms))
		}
		region, err := alg.Locate(ms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if region.Empty() {
			t.Errorf("%s: CBG++ must never return an empty region", name)
			continue
		}
		total++
		if d := region.DistanceToPointKm(loc); d > 300 {
			misses++
			t.Logf("%s: region misses truth by %.0f km (area %.0f km²)", name, d, region.AreaKm2())
		}
	}
	// §5.1: CBG++ eliminated all remaining misses on the crowdsourced
	// hosts. Allow one marginal miss across the world set for grid
	// coarseness, but no more.
	if misses > 1 {
		t.Errorf("CBG++ missed %d/%d world targets", misses, total)
	}
}

func TestNeverWorseThanCBGCoverage(t *testing.T) {
	cons, env := algtest.Fixture(t)
	plainCal, err := cbg.Calibrate(cons, cbg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := cbg.New(env, plainCal)
	pp, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(62))

	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "cmp-"+name, loc, 25, rng)
		cr, err := plain.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pp.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Empty() {
			t.Errorf("%s: CBG++ empty", name)
			continue
		}
		cMiss := cr.DistanceToPointKm(loc)
		pMiss := pr.DistanceToPointKm(loc)
		// CBG++ must not miss where plain CBG covers.
		if cMiss == 0 && pMiss > 300 {
			t.Errorf("%s: CBG covered the target but CBG++ missed by %.0f km", name, pMiss)
		}
	}
}

func TestBaselineRegionAlwaysCoversTarget(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(63))
	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "base-"+name, loc, 25, rng)
		base := alg.BaselineRegion(ms)
		if base.Empty() {
			t.Fatalf("%s: empty baseline region", name)
		}
		if d := base.DistanceToPointKm(loc); d > 300 {
			t.Errorf("%s: baseline region misses truth by %.0f km — physically impossible unless the simulator broke the floor", name, d)
		}
	}
}

func TestAblationOptions(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	rng := rand.New(rand.NewSource(64))
	loc := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := algtest.MeasureTarget(t, cons, "abl-berlin", loc, 25, rng)

	full, _ := newAlg(t, Options{})
	noSlow, _ := newAlg(t, Options{DisableSlowline: true})
	noFilter, _ := newAlg(t, Options{DisableBaselineFilter: true})

	for _, alg := range []*CBGPP{full, noSlow, noFilter} {
		r, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		if r.Empty() {
			t.Errorf("ablated variant returned empty region")
		}
	}
}

func TestLocateDetailedKeptCount(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(65))
	ms := algtest.MeasureTarget(t, cons, "det-berlin", geo.Point{Lat: 52.52, Lon: 13.405}, 25, rng)
	_, kept, err := alg.LocateDetailed(ms)
	if err != nil {
		t.Fatal(err)
	}
	if kept < 1 || kept > len(geoloc.Collapse(ms)) {
		t.Errorf("kept = %d of %d", kept, len(ms))
	}
}

func TestLocateNoMeasurements(t *testing.T) {
	alg, _ := newAlg(t, Options{})
	if _, err := alg.Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
	if alg.Name() != "CBG++" {
		t.Error("name")
	}
	if alg.Calibration() == nil {
		t.Error("calibration accessor")
	}
}

// TestBaselineFilterOverrulesUnderestimatingMajority pins the baseline
// filter on a hand-built vector. Three honest landmarks 100 km from the
// target have 200 km bestline disks around it. Four underestimating
// landmarks 100 km around a decoy 9,150 km away have 8,000 km bestline
// disks, which share the decoy and stay at least 900 km short of the
// target; their RTTs are physically real, so their baseline disks still
// reach it. Among bestlines the four outvote the three. Among baselines
// all seven meet at the target, and the honest baseline disks (about
// 490 km) keep the baseline region near it, out of every
// underestimating bestline disk. With the filter CBG++ keeps the three
// honest disks and covers the target; without it the region sits on the
// decoy.
func TestBaselineFilterOverrulesUnderestimatingMajority(t *testing.T) {
	pp, env := newAlg(t, Options{})
	noFilter, _ := newAlg(t, Options{DisableBaselineFilter: true})
	cal := pp.Calibration()
	target := geo.Point{Lat: 48.5, Lon: 10}   // Bavaria
	decoy := geo.Point{Lat: 22.3, Lon: 114.2} // Hong Kong, 9,150 km away
	var ms []geoloc.Measurement
	add := func(id string, at geo.Point, bestKm float64) {
		ms = append(ms, geoloc.Measurement{
			LandmarkID: netsim.HostID(id),
			Landmark:   at,
			RTTms:      2 * cal.Pooled().At(bestKm),
		})
	}
	for i, brg := range []float64{0, 120, 240} {
		add(fmt.Sprintf("honest-%d", i), geo.DestinationPoint(target, brg, 100), 200)
	}
	for i, brg := range []float64{45, 135, 225, 315} {
		add(fmt.Sprintf("under-%d", i), geo.DestinationPoint(decoy, brg, 100), 8000)
	}
	// The construction's premises, so a change of the fixture's pooled
	// bestline cannot quietly void the test.
	for _, m := range ms[3:] {
		d := geo.DistanceKm(m.Landmark, target)
		if best := cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()); best+900 > d {
			t.Fatalf("%s: bestline disk %.0f km reaches within 900 km of the target %.0f km away", m.LandmarkID, best, d)
		}
		if base := geo.MaxDistanceKm(m.OneWayMs(), geo.BaselineSpeedKmPerMs); base < d+200 {
			t.Fatalf("%s: baseline disk %.0f km does not clearly cover the target %.0f km away", m.LandmarkID, base, d)
		}
	}

	slack := 1.2 * grid.KmPerDeg * env.Grid.Resolution()
	region, kept, err := pp.LocateDetailed(ms)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 3 {
		t.Errorf("baseline filter kept %d bestline disks, want the 3 honest ones", kept)
	}
	if region.Empty() || region.DistanceToPointKm(target) > slack {
		t.Errorf("CBG++ region misses the target by %.0f km", region.DistanceToPointKm(target))
	}
	unfiltered, err := noFilter.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if unfiltered.DistanceToPointKm(target) <= slack || unfiltered.DistanceToPointKm(decoy) > 600 {
		t.Errorf("without the filter the region should sit on the decoy: %.0f km from the target, %.0f km from the decoy",
			unfiltered.DistanceToPointKm(target), unfiltered.DistanceToPointKm(decoy))
	}
}
