package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"activegeo/internal/geo"
)

func testGrid(t testing.TB) *Grid {
	t.Helper()
	return New(1.0)
}

func TestGridTotalArea(t *testing.T) {
	g := testGrid(t)
	var total float64
	for b := 0; b < g.bands; b++ {
		total += g.cellArea[b] * float64(g.cols[b])
	}
	sphere := 4 * math.Pi * geo.EarthRadiusKm * geo.EarthRadiusKm
	if math.Abs(total-sphere)/sphere > 1e-9 {
		t.Errorf("total cell area %.0f ≠ sphere area %.0f", total, sphere)
	}
}

func TestGridCellAreasRoughlyEqual(t *testing.T) {
	g := testGrid(t)
	// Equal-area within a factor ~2 away from the extreme polar bands.
	ref := g.cellArea[g.bands/2] // equatorial band
	for b := 2; b < g.bands-2; b++ {
		ratio := g.cellArea[b] / ref
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("band %d cell area ratio %f", b, ratio)
		}
	}
}

func TestCellAtRoundTrip(t *testing.T) {
	g := testGrid(t)
	f := func(lat, lon float64) bool {
		p := geo.Point{
			Lat: math.Mod(lat, 90),
			Lon: math.Mod(lon, 180),
		}
		if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
			return true
		}
		i := g.CellAt(p)
		if i < 0 || i >= g.NumCells() {
			return false
		}
		// The cell's center should be within one cell diagonal of p.
		d := geo.DistanceKm(g.Center(i), p)
		return d < 2*111.195*g.Resolution()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellAtPoles(t *testing.T) {
	g := testGrid(t)
	for _, p := range []geo.Point{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, {Lat: 90, Lon: 179.9}, {Lat: -90, Lon: -179.9}} {
		i := g.CellAt(p)
		if i < 0 || i >= g.NumCells() {
			t.Errorf("pole point %v → invalid cell %d", p, i)
		}
	}
}

func TestRegionSetOperations(t *testing.T) {
	g := testGrid(t)
	a := g.NewRegion()
	b := g.NewRegion()
	a.Add(10)
	a.Add(20)
	b.Add(20)
	b.Add(30)

	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 3 || !u.Contains(10) || !u.Contains(20) || !u.Contains(30) {
		t.Errorf("union wrong: %v", u)
	}
	i := a.Clone()
	i.IntersectWith(b)
	if i.Count() != 1 || !i.Contains(20) {
		t.Errorf("intersection wrong: %v", i)
	}
	s := a.Clone()
	s.SubtractWith(b)
	if s.Count() != 1 || !s.Contains(10) {
		t.Errorf("subtraction wrong: %v", s)
	}
	if !a.IntersectsRegion(b) {
		t.Error("a and b share cell 20")
	}
	s.Remove(10)
	if !s.Empty() {
		t.Error("expected empty region")
	}
}

func TestFullRegion(t *testing.T) {
	g := testGrid(t)
	full := g.FullRegion()
	if full.Count() != g.NumCells() {
		t.Errorf("full region has %d cells, grid has %d", full.Count(), g.NumCells())
	}
	sphere := 4 * math.Pi * geo.EarthRadiusKm * geo.EarthRadiusKm
	if a := full.AreaKm2(); math.Abs(a-sphere)/sphere > 1e-9 {
		t.Errorf("full region area %.0f ≠ %.0f", a, sphere)
	}
}

func TestCapRegionConsistency(t *testing.T) {
	g := testGrid(t)
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	c := geo.Cap{Center: paris, RadiusKm: 500}
	r := g.CapRegion(c)

	if !r.ContainsPoint(paris) {
		t.Error("cap region must contain its center")
	}
	// Every cell center must actually be within the cap.
	r.Each(func(i int) {
		if d := geo.DistanceKm(g.Center(i), paris); d > 500+1 {
			t.Errorf("cell %d at distance %.1f exceeds cap radius", i, d)
		}
	})
	// Region area should approximate the analytic cap area.
	if got, want := r.AreaKm2(), c.AreaKm2(); math.Abs(got-want)/want > 0.10 {
		t.Errorf("cap region area %.0f, analytic %.0f", got, want)
	}
}

func TestCapRegionAntimeridian(t *testing.T) {
	g := testGrid(t)
	fiji := geo.Point{Lat: -17.7, Lon: 178.0}
	r := g.CapRegion(geo.Cap{Center: fiji, RadiusKm: 800})
	// A point on the other side of the antimeridian, within 800 km.
	other := geo.Point{Lat: -17.7, Lon: -176.0}
	if geo.DistanceKm(fiji, other) < 750 {
		if !r.ContainsPoint(other) {
			t.Error("cap region must wrap across the antimeridian")
		}
	}
}

func TestCapRegionPolar(t *testing.T) {
	g := testGrid(t)
	r := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 88, Lon: 0}, RadiusKm: 600})
	if r.Empty() {
		t.Fatal("polar cap region is empty")
	}
	if !r.ContainsPoint(geo.Point{Lat: 89.5, Lon: 120}) {
		t.Error("polar cap should cover the pole vicinity regardless of longitude")
	}
}

func TestIntersectCapAndRing(t *testing.T) {
	g := testGrid(t)
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	r := g.CapRegion(geo.Cap{Center: paris, RadiusKm: 1000})
	ring := g.NewRegion()
	newCapMasks(g, g.DistancesFrom(paris), nil).FillRingKm(ring, 300, 600)
	r.IntersectWith(ring)
	r.Each(func(i int) {
		d := geo.DistanceKm(g.Center(i), paris)
		if d < 299 || d > 601 {
			t.Errorf("ring intersection kept cell at %.1f km", d)
		}
	})
	if r.Empty() {
		t.Error("ring intersection should not be empty")
	}
}

func TestCapRegionMatchesBruteForce(t *testing.T) {
	g := New(3.0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		center := geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		radius := rng.Float64() * 15000
		c := geo.Cap{Center: center, RadiusKm: radius}
		got := g.CapRegion(c)
		centerCell := g.CellAt(center)
		for i := 0; i < g.NumCells(); i++ {
			inside := geo.DistanceKm(g.Center(i), center) <= radius
			if inside && !got.Contains(i) {
				t.Logf("seed %d: cell %d (center %v) inside cap %v r=%.0f but missing", seed, i, g.Center(i), center, radius)
				return false
			}
			if !inside && got.Contains(i) && i != centerCell {
				t.Logf("seed %d: cell %d outside cap but present", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCentroid(t *testing.T) {
	g := testGrid(t)
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	r := g.CapRegion(geo.Cap{Center: paris, RadiusKm: 400})
	c, ok := r.Centroid()
	if !ok {
		t.Fatal("centroid of nonempty region")
	}
	if d := geo.DistanceKm(c, paris); d > 100 {
		t.Errorf("centroid %.1f km from cap center", d)
	}
	if _, ok := g.NewRegion().Centroid(); ok {
		t.Error("empty region must have no centroid")
	}
}

func TestCentroidAntimeridian(t *testing.T) {
	g := testGrid(t)
	fiji := geo.Point{Lat: -17.7, Lon: 179.5}
	r := g.CapRegion(geo.Cap{Center: fiji, RadiusKm: 500})
	c, ok := r.Centroid()
	if !ok {
		t.Fatal("no centroid")
	}
	if d := geo.DistanceKm(c, fiji); d > 150 {
		t.Errorf("antimeridian centroid off by %.1f km (got %v)", d, c)
	}
}

func TestDistanceToPoint(t *testing.T) {
	g := testGrid(t)
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	r := g.CapRegion(geo.Cap{Center: paris, RadiusKm: 300})
	if d := r.DistanceToPointKm(paris); d != 0 {
		t.Errorf("distance to contained point = %f", d)
	}
	newYork := geo.Point{Lat: 40.7128, Lon: -74.0060}
	d := r.DistanceToPointKm(newYork)
	want := geo.DistanceKm(paris, newYork) - 300
	if math.Abs(d-want) > 150 {
		t.Errorf("distance to NY = %.0f, want ≈%.0f", d, want)
	}
	if !math.IsInf(g.NewRegion().DistanceToPointKm(paris), 1) {
		t.Error("empty region distance should be +Inf")
	}
}

func TestEachOrderedAndComplete(t *testing.T) {
	g := testGrid(t)
	r := g.NewRegion()
	want := []int{3, 64, 65, 1000, g.NumCells() - 1}
	for _, i := range want {
		r.Add(i)
	}
	var got []int
	r.Each(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Each order: got %v, want %v", got, want)
			break
		}
	}
}

func TestFilter(t *testing.T) {
	g := testGrid(t)
	r := g.FullRegion()
	r.Filter(func(p geo.Point) bool { return p.Lat > 0 })
	r.Each(func(i int) {
		if g.Center(i).Lat <= 0 {
			t.Fatalf("filter kept southern cell at %v", g.Center(i))
		}
	})
	if r.Count() == 0 || r.Count() >= g.NumCells() {
		t.Errorf("filtered count %d", r.Count())
	}
}

func TestRegionPropertiesQuick(t *testing.T) {
	g := New(2.0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := g.NewRegion(), g.NewRegion()
		for i := 0; i < 50; i++ {
			a.Add(rng.Intn(g.NumCells()))
			b.Add(rng.Intn(g.NumCells()))
		}
		// |A∪B| + |A∩B| == |A| + |B|
		u, in := a.Clone(), a.Clone()
		u.UnionWith(b)
		in.IntersectWith(b)
		if u.Count()+in.Count() != a.Count()+b.Count() {
			return false
		}
		// (A\B) ∩ B == ∅
		s := a.Clone()
		s.SubtractWith(b)
		s.IntersectWith(b)
		return s.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionString(t *testing.T) {
	g := testGrid(t)
	if s := g.NewRegion().String(); s != "region{empty}" {
		t.Errorf("empty region string %q", s)
	}
	r := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 10, Lon: 10}, RadiusKm: 200})
	if s := r.String(); len(s) == 0 || s == "region{empty}" {
		t.Errorf("region string %q", s)
	}
}

func TestNewPanicsOnBadResolution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func BenchmarkCellAt(b *testing.B) {
	g := New(0.5)
	p := geo.Point{Lat: 48.8566, Lon: 2.3522}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CellAt(p)
	}
}

func BenchmarkCapRegion(b *testing.B) {
	g := New(0.5)
	c := geo.Cap{Center: geo.Point{Lat: 48.8566, Lon: 2.3522}, RadiusKm: 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CapRegion(c)
	}
}
