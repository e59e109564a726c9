package geoloc

import (
	"sync"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
)

var (
	envOnce sync.Once
	envFix  *Env
)

func testEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { envFix = NewEnv(2.0) })
	return envFix
}

func TestCollapse(t *testing.T) {
	ms := []Measurement{
		{LandmarkID: "b", RTTms: 30},
		{LandmarkID: "a", RTTms: 50},
		{LandmarkID: "a", RTTms: 20},
		{LandmarkID: "a", RTTms: 40},
	}
	out := Collapse(ms)
	if len(out) != 2 {
		t.Fatalf("collapsed to %d", len(out))
	}
	if out[0].LandmarkID != "a" || out[0].RTTms != 20 {
		t.Errorf("out[0] = %+v, want a@20", out[0])
	}
	if out[1].LandmarkID != "b" || out[1].RTTms != 30 {
		t.Errorf("out[1] = %+v", out[1])
	}
	if len(Collapse(nil)) != 0 {
		t.Error("collapse of nil")
	}
}

func TestOneWay(t *testing.T) {
	m := Measurement{RTTms: 42}
	if m.OneWayMs() != 21 {
		t.Errorf("one way = %f", m.OneWayMs())
	}
}

func TestApplyExclusionsLand(t *testing.T) {
	e := testEnv(t)
	// A region over central Europe survives land masking.
	r := e.Grid.CapRegion(geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 500})
	masked := e.ApplyExclusions(r)
	if masked.Empty() {
		t.Fatal("European region emptied by exclusions")
	}
	masked.Each(func(i int) {
		if e.Mask.CountryOfCell(i) == "" {
			t.Fatalf("masked region kept water cell %d", i)
		}
	})
}

func TestApplyExclusionsAllSea(t *testing.T) {
	e := testEnv(t)
	// Mid-Pacific region: no land — the latitude-band fallback applies.
	r := e.Grid.CapRegion(geo.Cap{Center: geo.Point{Lat: -40, Lon: -120}, RadiusKm: 800})
	masked := e.ApplyExclusions(r)
	if masked.Empty() {
		t.Fatal("sea region should fall back to latitude masking, not vanish")
	}
	masked.Each(func(i int) {
		p := e.Grid.Center(i)
		if p.Lat > 85 || p.Lat < -60 {
			t.Fatalf("excluded latitude survived: %v", p)
		}
	})
}

func TestApplyExclusionsPolar(t *testing.T) {
	e := testEnv(t)
	r := e.Grid.CapRegion(geo.Cap{Center: geo.Point{Lat: 89, Lon: 0}, RadiusKm: 900})
	masked := e.ApplyExclusions(r)
	masked.Each(func(i int) {
		if e.Grid.Center(i).Lat > 85 {
			t.Fatalf("cell north of 85°N survived")
		}
	})
}

func TestCoverageArgmax(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	a := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 1000})
	b := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 51, Lon: 12}, RadiusKm: 1000})
	c := g.CapRegion(geo.Cap{Center: geo.Point{Lat: -30, Lon: 140}, RadiusKm: 1000}) // disjoint

	best, count := CoverageArgmax(g, []*grid.Region{a, b, c})
	if count != 2 {
		t.Fatalf("max count = %d, want 2", count)
	}
	// The argmax region is exactly the a∩b lens.
	ab := a.Clone()
	ab.IntersectWith(b)
	if best.Count() != ab.Count() {
		t.Errorf("argmax %d cells, intersection %d", best.Count(), ab.Count())
	}
	// Degenerate cases.
	empty, count := CoverageArgmax(g, nil)
	if count != 0 || !empty.Empty() {
		t.Error("empty input should give empty region")
	}
}

func TestIntersectOrArgmaxStrict(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	a := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 1500})
	b := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 51, Lon: 12}, RadiusKm: 1500})
	strict := IntersectOrArgmax(g, []*grid.Region{a, b})
	want := a.Clone()
	want.IntersectWith(b)
	if strict.Count() != want.Count() {
		t.Errorf("strict path: %d cells, want %d", strict.Count(), want.Count())
	}
}

func TestIntersectOrArgmaxFallback(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	// Three regions: a and b overlap; c is disjoint → strict intersection
	// empty → majority fallback (2 of 3) returns a∩b.
	a := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 1200})
	b := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 51, Lon: 12}, RadiusKm: 1200})
	c := g.CapRegion(geo.Cap{Center: geo.Point{Lat: -30, Lon: 140}, RadiusKm: 500})
	out := IntersectOrArgmax(g, []*grid.Region{a, b, c})
	if out.Empty() {
		t.Fatal("fallback should be nonempty (2/3 majority)")
	}
	if !out.ContainsPoint(geo.Point{Lat: 50.5, Lon: 11}) {
		t.Error("fallback should cover the a∩b lens")
	}

	// No majority: four pairwise-disjoint regions → empty result.
	d1 := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 0, Lon: 0}, RadiusKm: 300})
	d2 := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 0, Lon: 90}, RadiusKm: 300})
	d3 := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 0, Lon: -90}, RadiusKm: 300})
	d4 := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 60, Lon: 180}, RadiusKm: 300})
	out = IntersectOrArgmax(g, []*grid.Region{d1, d2, d3, d4})
	if !out.Empty() {
		t.Errorf("minority agreement should yield no prediction, got %d cells", out.Count())
	}
	if out := IntersectOrArgmax(g, nil); !out.Empty() {
		t.Error("no constraints should give empty region")
	}
}

func TestRingRegion(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	center := geo.Point{Lat: 48.86, Lon: 2.35}
	ring := geo.Ring{Center: center, MinKm: 1000, MaxKm: 2500}
	r := e.RingRegionFor("paris", ring)
	if r.Empty() {
		t.Fatal("empty ring region")
	}
	// Center excluded (well inside MinKm, with a cell of slack).
	if r.ContainsPoint(center) {
		t.Error("ring region contains its own center")
	}
	// All cells within MaxKm; boundary cells get rasterization slack.
	r.Each(func(i int) {
		d := geo.DistanceKm(g.Center(i), center)
		if d > 2500+1 {
			t.Fatalf("cell at %.0f km beyond ring max", d)
		}
		if d < 1000-2*111.195*g.Resolution() {
			t.Fatalf("cell at %.0f km deep inside ring min", d)
		}
	})
	// Zero-min ring is a disk.
	disk := e.RingRegionFor("paris", geo.Ring{Center: center, MinKm: 0, MaxKm: 800})
	if !disk.ContainsPoint(center) {
		t.Error("zero-min ring should contain center")
	}
}

func TestPadKmScalesWithResolution(t *testing.T) {
	coarse := NewEnv(3.0)
	if testEnv(t).PadKm() >= coarse.PadKm() {
		t.Error("finer grid should have smaller padding")
	}
}
