package measure

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

func addTarget(t testing.TB, net *netsim.Network, id string, loc geo.Point) netsim.HostID {
	t.Helper()
	hid := netsim.HostID(id)
	if net.Host(hid) == nil {
		if err := net.AddHost(&netsim.Host{ID: hid, Loc: loc}); err != nil {
			t.Fatal(err)
		}
	}
	return hid
}

func TestCLIToolSingleTrip(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-cli-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	tool := &CLITool{Net: cons.Net(), Attempts: 4}
	rng := rand.New(rand.NewSource(1))
	lm := cons.Anchors()[0]
	s, err := tool.Measure(from, lm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trips != 1 {
		t.Errorf("CLI trips = %d", s.Trips)
	}
	if s.RTTms <= 0 {
		t.Errorf("RTT = %f", s.RTTms)
	}
	base, _ := cons.Net().BaseRTTMs(from, lm.Host.ID)
	if s.RTTms < base {
		t.Errorf("measured %f below base %f", s.RTTms, base)
	}
}

func TestWebToolTwoTripDoubling(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-web-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	tool := &WebTool{Net: cons.Net(), OS: Linux, Attempts: 5}
	rng := rand.New(rand.NewSource(2))

	// Regression of measured RTT on base RTT per trip group should show
	// the §4.3 slope ratio of ≈2.
	var x1, y1, x2, y2 []float64
	for _, lm := range cons.Anchors() {
		s, err := tool.Measure(from, lm, rng)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := cons.Net().BaseRTTMs(from, lm.Host.ID)
		if s.Trips == 2 {
			x2, y2 = append(x2, base), append(y2, s.RTTms)
		} else {
			x1, y1 = append(x1, base), append(y1, s.RTTms)
		}
	}
	if len(x1) < 10 || len(x2) < 10 {
		t.Fatalf("trip groups too small: %d/%d", len(x1), len(x2))
	}
	l1, err := mathx.FitLineThroughOrigin(x1, y1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := mathx.FitLineThroughOrigin(x2, y2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := l2.Slope / l1.Slope
	if math.Abs(ratio-2) > 0.25 {
		t.Errorf("two-trip/one-trip slope ratio = %f, want ≈2 (Fig 4)", ratio)
	}
}

func TestWindowsNoisierThanLinux(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-os-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	rng := rand.New(rand.NewSource(3))
	excess := func(os OS, br Browser) float64 {
		tool := &WebTool{Net: cons.Net(), OS: os, Browser: br, Attempts: 3}
		var tot float64
		n := 0
		for _, lm := range cons.Anchors()[:40] {
			s, err := tool.Measure(from, lm, rng)
			if err != nil {
				continue
			}
			base, _ := cons.Net().BaseRTTMs(from, lm.Host.ID)
			mult := float64(s.Trips)
			tot += s.RTTms - mult*base
			n++
		}
		return tot / float64(n)
	}
	linux := excess(Linux, Firefox)
	windows := excess(Windows, Firefox)
	if windows <= linux {
		t.Errorf("Windows excess %f should exceed Linux %f (Fig 5)", windows, linux)
	}
}

func TestWindowsHighOutliers(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-out-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	rng := rand.New(rand.NewSource(4))
	tool := &WebTool{Net: cons.Net(), OS: Windows, Browser: Edge, Attempts: 3}
	outliers := 0
	total := 0
	for round := 0; round < 5; round++ {
		for _, lm := range cons.Anchors()[:40] {
			s, err := tool.Measure(from, lm, rng)
			if err != nil {
				continue
			}
			total++
			if s.RTTms > 1000 {
				outliers++
			}
		}
	}
	frac := float64(outliers) / float64(total)
	if frac < 0.02 || frac > 0.35 {
		t.Errorf("high-outlier fraction %f, want a noticeable minority (Fig 6)", frac)
	}
}

func TestTwoPhaseContinentInference(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	rng := rand.New(rand.NewSource(5))
	// Tokyo may resolve to Asia or Oceania: under the paper's Appendix A
	// continents, Manila and Singapore count as Oceania, and an East
	// Asian target can be closer to them than to the sampled Asian
	// anchors.
	cases := map[string]struct {
		loc  geo.Point
		want map[worldmap.Continent]bool
	}{
		"m-tp-berlin": {geo.Point{Lat: 52.52, Lon: 13.405}, map[worldmap.Continent]bool{worldmap.Europe: true}},
		"m-tp-chi":    {geo.Point{Lat: 41.88, Lon: -87.63}, map[worldmap.Continent]bool{worldmap.NorthAmerica: true}},
		"m-tp-tokyo":  {geo.Point{Lat: 35.68, Lon: 139.65}, map[worldmap.Continent]bool{worldmap.Asia: true, worldmap.Oceania: true}},
	}
	for id, c := range cases {
		from := addTarget(t, cons.Net(), id, c.loc)
		tp := &TwoPhase{Cons: cons, Tool: &CLITool{Net: cons.Net()}}
		res, err := tp.Run(from, rng)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !c.want[res.Continent] {
			t.Errorf("%s: inferred %v, want one of %v", id, res.Continent, c.want)
		}
		if len(res.Phase2) == 0 {
			t.Errorf("%s: no phase-2 samples", id)
		}
		// Phase-2 landmarks must all be on the deduced continent.
		for _, s := range res.Phase2 {
			lm := cons.Landmark(s.LandmarkID)
			wc := worldmap.ByCode(lm.Host.Country)
			if wc.Continent != res.Continent {
				t.Errorf("%s: phase-2 landmark %s on %v, want %v", id, s.LandmarkID, wc.Continent, res.Continent)
			}
		}
		if len(res.Measurements()) != len(res.Phase1)+len(res.Phase2) {
			t.Errorf("%s: Measurements() size mismatch", id)
		}
	}
}

func TestTwoPhaseRespectsSecondPhaseCount(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-tp2-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	tp := &TwoPhase{Cons: cons, Tool: &CLITool{Net: cons.Net()}, SecondPhase: 7}
	res, err := tp.Run(from, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phase2) > 7 {
		t.Errorf("phase 2 used %d landmarks, cap was 7", len(res.Phase2))
	}
}

// failingSource draws phase one from a constellation and fails phase
// two.
type failingSource struct {
	cons  *atlas.Constellation
	calls []atlas.Phase
}

var errPhase2 = errors.New("phase two unavailable")

func (s *failingSource) Draw(ph atlas.Phase, cont worldmap.Continent, n int, rng *rand.Rand) ([]*atlas.Landmark, error) {
	s.calls = append(s.calls, ph)
	if ph == atlas.Phase2 {
		return nil, errPhase2
	}
	return s.cons.Draw(ph, cont, n, rng)
}

// TestTwoPhaseSourceErrorEndsRun: Run asks for phase one once per
// continent, and a source error ends the campaign with that error
// instead of being skipped like an unreachable landmark.
func TestTwoPhaseSourceErrorEndsRun(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	from := addTarget(t, cons.Net(), "m-tp-fail-berlin", geo.Point{Lat: 52.52, Lon: 13.405})
	src := &failingSource{cons: cons}
	tp := &TwoPhase{Cons: src, Tool: &CLITool{Net: cons.Net()}}
	if res, err := tp.Run(from, rand.New(rand.NewSource(6))); !errors.Is(err, errPhase2) {
		t.Fatalf("Run = %v, %v; want the source's error", res, err)
	}
	if len(src.calls) != worldmap.NumContinents+1 || src.calls[worldmap.NumContinents] != atlas.Phase2 {
		t.Errorf("draws %v, want one phase-one draw per continent, then phase two", src.calls)
	}
}
