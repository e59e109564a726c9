package cbg

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// shared fixture: building the constellation and mask is the expensive
// part, so do it once for the package.
var (
	fixOnce sync.Once
	fixCons *atlas.Constellation
	fixEnv  *geoloc.Env
)

func fixture(t testing.TB) (*atlas.Constellation, *geoloc.Env) {
	t.Helper()
	fixOnce.Do(func() {
		net := netsim.New(11)
		rng := rand.New(rand.NewSource(11))
		var err error
		fixCons, err = atlas.Build(net, atlas.Config{Anchors: 80, Probes: 60, SamplesPerPair: 4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		fixEnv = geoloc.NewEnv(1.5)
	})
	return fixCons, fixEnv
}

// measureTarget adds a host at loc (reusing it when an earlier run in
// this process already added it to the shared fixture network) and
// measures min-of-k RTTs to n landmarks (preferring nearby anchors to
// mimic phase-two selection).
func measureTarget(t testing.TB, cons *atlas.Constellation, id string, loc geo.Point, n int, rng *rand.Rand) []geoloc.Measurement {
	t.Helper()
	host := cons.Net().Host(netsim.HostID(id))
	if host == nil {
		host = &netsim.Host{ID: netsim.HostID(id), Loc: loc}
		if err := cons.Net().AddHost(host); err != nil {
			t.Fatal(err)
		}
	}
	lms := cons.Anchors()
	// Sort by distance and take a mix: the nearest 2n/3 plus every 5th
	// farther anchor, like a two-phase selection would produce.
	type cand struct {
		lm *atlas.Landmark
		d  float64
	}
	cands := make([]cand, len(lms))
	for i, lm := range lms {
		cands[i] = cand{lm, geo.DistanceKm(loc, lm.Host.Loc)}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var ms []geoloc.Measurement
	for i, c := range cands {
		if len(ms) >= n {
			break
		}
		if i < 2*n/3 || i%5 == 0 {
			rtt, err := cons.Net().MinOfSamples(host.ID, c.lm.Host.ID, 3, rng)
			if err != nil {
				continue
			}
			ms = append(ms, geoloc.Measurement{
				LandmarkID: c.lm.Host.ID,
				Landmark:   c.lm.Host.Loc,
				RTTms:      rtt,
			})
		}
	}
	return ms
}

func TestBestLineBasicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]mathx.XY, 200)
	trueLine := mathx.Line{Slope: 1.0 / 95.0, Intercept: 4}
	for i := range pts {
		d := rng.Float64() * 9000
		pts[i] = mathx.XY{X: d, Y: trueLine.At(d) + rng.ExpFloat64()*20}
	}
	got, err := BestLine(pts, false)
	if err != nil {
		t.Fatal(err)
	}
	// Below all points.
	for _, p := range pts {
		if got.At(p.X) > p.Y+1e-6 {
			t.Fatalf("bestline above point (%f, %f): line value %f", p.X, p.Y, got.At(p.X))
		}
	}
	// Above the baseline.
	if got.Slope < baselineSlope-1e-12 {
		t.Errorf("bestline slope %f faster than baseline", got.Slope)
	}
	if got.Intercept < -1e-9 {
		t.Errorf("negative intercept %f", got.Intercept)
	}
	// Touches the data (within noise): at least one point within 1 ms.
	touch := false
	for _, p := range pts {
		if p.Y-got.At(p.X) < 1.0 {
			touch = true
			break
		}
	}
	if !touch {
		t.Error("bestline far below all points — not 'as close as possible'")
	}
	// Should roughly recover the generating slope (speed ≈ 95 km/ms).
	speed := 1 / got.Slope
	if speed < 80 || speed > 130 {
		t.Errorf("recovered speed %f km/ms, want ≈95", speed)
	}
}

func TestBestLineSlowlineClamp(t *testing.T) {
	// Scatter so slow that the unconstrained bestline would be slower
	// than 84.5 km/ms.
	pts := []mathx.XY{{X: 1000, Y: 50}, {X: 2000, Y: 100}, {X: 4000, Y: 200}, {X: 8000, Y: 400}} // 20 km/ms
	plain, err := BestLine(pts, false)
	if err != nil {
		t.Fatal(err)
	}
	if speed := 1 / plain.Slope; speed > 25 {
		t.Errorf("plain bestline speed %f, want ≈20", speed)
	}
	clamped, err := BestLine(pts, true)
	if err != nil {
		t.Fatal(err)
	}
	if speed := 1 / clamped.Slope; math.Abs(speed-geo.SlowlineSpeedKmPerMs) > 0.1 {
		t.Errorf("slowline-clamped speed %f, want 84.5", speed)
	}
	// Clamped line estimates larger distances for the same time.
	if clamped.InvertX(200) <= plain.InvertX(200) {
		t.Error("slowline must enlarge distance estimates")
	}
}

func TestBestLineEmpty(t *testing.T) {
	if _, err := BestLine(nil, false); err == nil {
		t.Error("want error for no points")
	}
}

func TestBestLineFasterThanBaselinePoint(t *testing.T) {
	// A (physically impossible) point below the baseline: the fallback
	// bound line must still be returned, below-all-points no longer
	// satisfiable with slope ≥ baseline and intercept ≥ 0.
	pts := []mathx.XY{{X: 10000, Y: 1}} // 10000 km in 1 ms
	l, err := BestLine(pts, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope < baselineSlope-1e-12 || l.Intercept < 0 {
		t.Errorf("fallback line %+v violates bounds", l)
	}
}

func TestBestLineQuickFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		pts := make([]mathx.XY, n)
		for i := range pts {
			d := rng.Float64() * 15000
			pts[i] = mathx.XY{X: d, Y: d/geo.BaselineSpeedKmPerMs + 1 + rng.ExpFloat64()*40}
		}
		l, err := BestLine(pts, false)
		if err != nil {
			return false
		}
		if l.Slope < baselineSlope-1e-12 || l.Intercept < -1e-9 {
			return false
		}
		for _, p := range pts {
			if l.At(p.X) > p.Y+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateCoversAnchors(t *testing.T) {
	cons, _ := fixture(t)
	cal, err := Calibrate(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cons.Anchors() {
		l := cal.Line(a.Host.ID)
		if l.Slope < baselineSlope-1e-12 {
			t.Errorf("anchor %s bestline slope %f below baseline", a.Host.ID, l.Slope)
		}
	}
	// Probe fallback uses the pooled line.
	probe := cons.Probes()[0]
	if cal.Line(probe.Host.ID) != cal.Pooled() {
		t.Error("probe should fall back to pooled line")
	}
}

func TestMaxDistanceKmCaps(t *testing.T) {
	cons, _ := fixture(t)
	cal, err := Calibrate(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := cons.Anchors()[0].Host.ID
	// Huge delay: the estimate is capped at half the equator.
	if d := cal.MaxDistanceKm(id, 1e6); d > geo.HalfEquatorKm {
		t.Errorf("estimate %f exceeds half equator", d)
	}
	// The estimate can never exceed the baseline distance.
	for _, ms := range []float64{1, 10, 50, 100, 250} {
		if d := cal.MaxDistanceKm(id, ms); d > ms*geo.BaselineSpeedKmPerMs+1e-9 {
			t.Errorf("estimate %f exceeds baseline bound for %f ms", d, ms)
		}
	}
}

// TestMaxDistanceWithinBaseline: a bestline distance never exceeds the
// baseline distance at the same one-way time, the precondition of
// CBG++'s strict-first exit (cbgpp.CBGPP.LocateDetailed). Calibrate
// never fits these hand-built lines: a negative intercept, a slope
// faster than the baseline, and a flat line. The quick lab's fitted
// lines are checked in package experiments.
func TestMaxDistanceWithinBaseline(t *testing.T) {
	for _, l := range []mathx.Line{
		{Slope: 1 / 100.0, Intercept: -5},
		{Slope: 1 / 300.0, Intercept: -1},
		{Slope: 0, Intercept: 3},
		{Slope: slowlineSlope, Intercept: -0.5},
	} {
		cal := &Calibration{lines: map[netsim.HostID]mathx.Line{"lm": l}, pooled: l}
		for i := 0; i <= 1600; i++ {
			ms := float64(i) / 4 // 0 to 400 ms, past the slowline's 237 ms
			for _, id := range []netsim.HostID{"lm", "unknown"} {
				if d, lim := cal.MaxDistanceKm(id, ms), geo.MaxDistanceKm(ms, geo.BaselineSpeedKmPerMs); !(d <= lim) {
					t.Fatalf("line %+v at %.2f ms: %v km, baseline %v km", l, ms, d, lim)
				}
			}
		}
	}
}

func TestCBGLocateCoversEuropeanTarget(t *testing.T) {
	cons, env := fixture(t)
	cal, err := Calibrate(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, cal)
	rng := rand.New(rand.NewSource(21))

	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := measureTarget(t, cons, "target-berlin", berlin, 25, rng)
	if len(ms) < 15 {
		t.Fatalf("only %d measurements", len(ms))
	}
	region, err := alg.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if region.Empty() {
		t.Fatal("CBG produced an empty region for a well-covered target")
	}
	c, _ := region.Centroid()
	if d := geo.DistanceKm(c, berlin); d > 2500 {
		t.Errorf("centroid %v is %.0f km from the true location", c, d)
	}
}

func TestCBGLocateNoMeasurements(t *testing.T) {
	cons, env := fixture(t)
	cal, _ := Calibrate(cons, Options{})
	if _, err := New(env, cal).Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
}

// TestCBGDisksMatchMeasurements: a landmark measured twice contributes
// one disk, sized from its minimum RTT.
func TestCBGDisksMatchMeasurements(t *testing.T) {
	cons, env := fixture(t)
	cal, _ := Calibrate(cons, Options{})
	alg := New(env, cal)
	a := cons.Anchors()[0]
	m := func(rtt float64) geoloc.Measurement {
		return geoloc.Measurement{LandmarkID: a.Host.ID, Landmark: a.Host.Loc, RTTms: rtt}
	}
	locate := func(ms ...geoloc.Measurement) *grid.Region {
		t.Helper()
		r, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got := locate(m(40), m(30)) // duplicate, lower second
	if want := locate(m(30)); !got.Equal(want) {
		t.Errorf("duplicate landmark: %d cells, want the minimum RTT's %d", got.Count(), want.Count())
	}
	if other := locate(m(40)); got.Equal(other) {
		t.Errorf("the 40 ms and 30 ms disks give the same %d cells; the test cannot tell them apart", got.Count())
	}
	// The disk is the bestline radius plus the rasterization pad.
	want := env.Grid.Intersect([]grid.Constraint{grid.Disk(env.MasksFor(a.Host.ID, a.Host.Loc), env.Grid.CellAt(a.Host.Loc), cal.MaxDistanceKm(a.Host.ID, 15)+env.PadKm())})
	if want = env.ApplyExclusions(want); !got.Equal(want) {
		t.Errorf("region %d cells, want the padded 15 ms bestline disk's %d", got.Count(), want.Count())
	}
	if alg.Name() != "CBG" {
		t.Error("name")
	}
}
