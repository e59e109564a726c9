package geoloc

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
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

	// Equal-RTT duplicates that differ in another field: the first
	// occurrence wins, and the caller's slice keeps its order.
	ms = []Measurement{
		{LandmarkID: "c", Landmark: geo.Point{Lat: 1}, RTTms: 10},
		{LandmarkID: "a", Landmark: geo.Point{Lat: 2}, RTTms: 7},
		{LandmarkID: "c", Landmark: geo.Point{Lat: 3}, RTTms: 10},
		{LandmarkID: "a", Landmark: geo.Point{Lat: 4}, RTTms: 7},
		{LandmarkID: "c", Landmark: geo.Point{Lat: 5}, RTTms: 12},
		{LandmarkID: "b", Landmark: geo.Point{Lat: 6}, RTTms: 9},
	}
	in := slices.Clone(ms)
	out = Collapse(ms)
	want := []Measurement{in[1], in[5], in[0]}
	if !slices.Equal(out, want) {
		t.Errorf("collapsed to %+v, want %+v", out, want)
	}
	if !slices.Equal(ms, in) {
		t.Errorf("input changed to %+v, was %+v", ms, in)
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

// diskFor is the cap as a disk constraint on the Env's masks, under a
// landmark ID derived from its center.
func diskFor(e *Env, c geo.Cap) grid.Constraint {
	id := netsim.HostID(fmt.Sprintf("lm-%v-%v", c.Center.Lat, c.Center.Lon))
	return grid.Disk(e.MasksFor(id, c.Center), e.Grid.CellAt(c.Center), c.RadiusKm)
}

func TestIntersectOrArgmaxStrict(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	a := diskFor(e, geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 1500})
	b := diskFor(e, geo.Cap{Center: geo.Point{Lat: 51, Lon: 12}, RadiusKm: 1500})
	strict := IntersectOrArgmax(g, []grid.Constraint{a, b})
	want := g.Intersect([]grid.Constraint{a})
	want.IntersectWith(g.Intersect([]grid.Constraint{b}))
	if want.Empty() || !strict.Equal(want) {
		t.Errorf("strict path: %d cells, want a∩b's %d", strict.Count(), want.Count())
	}
}

func TestIntersectOrArgmaxFallback(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	// Three constraints: a and b overlap; c is disjoint → strict
	// intersection empty → majority fallback (2 of 3) returns a∩b.
	a := diskFor(e, geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 1200})
	b := diskFor(e, geo.Cap{Center: geo.Point{Lat: 51, Lon: 12}, RadiusKm: 1200})
	c := diskFor(e, geo.Cap{Center: geo.Point{Lat: -30, Lon: 140}, RadiusKm: 500})
	out := IntersectOrArgmax(g, []grid.Constraint{a, b, c})
	if out.Empty() {
		t.Fatal("fallback should be nonempty (2/3 majority)")
	}
	if !out.ContainsPoint(geo.Point{Lat: 50.5, Lon: 11}) {
		t.Error("fallback should cover the a∩b lens")
	}

	// No majority: four pairwise-disjoint disks → empty result.
	var ds []grid.Constraint
	for _, p := range []geo.Point{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 90}, {Lat: 0, Lon: -90}, {Lat: 60, Lon: 180}} {
		ds = append(ds, diskFor(e, geo.Cap{Center: p, RadiusKm: 300}))
	}
	out = IntersectOrArgmax(g, ds)
	if !out.Empty() {
		t.Errorf("minority agreement should yield no prediction, got %d cells", out.Count())
	}
	if out := IntersectOrArgmax(g, nil); !out.Empty() {
		t.Error("no constraints should give empty region")
	}
}

// ringRegion materializes the ring constraint as a region.
func ringRegion(e *Env, id netsim.HostID, ring geo.Ring) *grid.Region {
	return e.Grid.Intersect([]grid.Constraint{e.RingConstraint(id, ring)})
}

func TestRingRegion(t *testing.T) {
	e := testEnv(t)
	g := e.Grid
	center := geo.Point{Lat: 48.86, Lon: 2.35}
	ring := geo.Ring{Center: center, MinKm: 1000, MaxKm: 2500}
	r := ringRegion(e, "paris", ring)
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
		if d < 1000-2*grid.KmPerDeg*g.Resolution() {
			t.Fatalf("cell at %.0f km deep inside ring min", d)
		}
	})
	// Zero-min ring is a disk.
	disk := ringRegion(e, "paris", geo.Ring{Center: center, MinKm: 0, MaxKm: 800})
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
