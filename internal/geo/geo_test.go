package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Well-known city coordinates used across the test suite.
var (
	paris     = Point{Lat: 48.8566, Lon: 2.3522}
	london    = Point{Lat: 51.5074, Lon: -0.1278}
	newYork   = Point{Lat: 40.7128, Lon: -74.0060}
	sydney    = Point{Lat: -33.8688, Lon: 151.2093}
	tokyo     = Point{Lat: 35.6762, Lon: 139.6503}
	frankfurt = Point{Lat: 50.1109, Lon: 8.6821}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // km
		tol  float64
	}{
		{"paris-london", paris, london, 344, 5},
		{"london-newyork", london, newYork, 5570, 30},
		{"newyork-sydney", newYork, sydney, 15990, 80},
		{"tokyo-frankfurt", tokyo, frankfurt, 9370, 60},
		{"same-point", paris, paris, 0, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f ± %.1f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= HalfEquatorKm+60 // mean-radius half circumference ≈ 20015
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		c := Point{Lat: clampLat(lat3), Lon: clampLon(lon3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lat, lon, brg, dist float64) bool {
		p := Point{Lat: clampLat(lat) * 0.9, Lon: clampLon(lon)} // stay off poles
		d := math.Mod(math.Abs(dist), 5000)
		dest := DestinationPoint(p, math.Mod(math.Abs(brg), 360), d)
		back := DistanceKm(p, dest)
		return math.Abs(back-d) < 1e-3*d+1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationDue(t *testing.T) {
	// Due north from the equator by 1/4 circumference lands on the pole.
	quarter := math.Pi * EarthRadiusKm / 2
	dest := DestinationPoint(Point{0, 0}, 0, quarter)
	if math.Abs(dest.Lat-90) > 0.01 {
		t.Errorf("due north quarter-circumference: got %v, want pole", dest)
	}
	// Due east along the equator stays on the equator.
	dest = DestinationPoint(Point{0, 0}, 90, 1000)
	if math.Abs(dest.Lat) > 1e-6 {
		t.Errorf("due east along equator left the equator: %v", dest)
	}
	if math.Abs(dest.Lon-1000/EarthRadiusKm*radToDeg) > 0.01 {
		t.Errorf("due east 1000 km: got lon %.4f", dest.Lon)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want Point }{
		{Point{0, 190}, Point{0, -170}},
		{Point{0, -190}, Point{0, 170}},
		{Point{0, 360}, Point{0, 0}},
		{Point{95, 0}, Point{90, 0}},
		{Point{-95, 0}, Point{-90, 0}},
		{Point{45, 180}, Point{45, -180}},
	}
	for _, c := range cases {
		got := c.in.Normalize()
		if math.Abs(got.Lat-c.want.Lat) > 1e-9 || math.Abs(got.Lon-c.want.Lon) > 1e-9 {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValid(t *testing.T) {
	if !paris.Valid() {
		t.Error("paris should be valid")
	}
	bad := []Point{{91, 0}, {0, 181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range bad {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestCapContains(t *testing.T) {
	c := Cap{Center: paris, RadiusKm: 400}
	if !c.Contains(london) {
		t.Error("London is within 400 km of Paris")
	}
	if c.Contains(newYork) {
		t.Error("New York is not within 400 km of Paris")
	}
	if !c.Contains(paris) {
		t.Error("cap must contain its own center")
	}
}

func TestCapArea(t *testing.T) {
	// Small cap area approaches the flat-disk area πr².
	c := Cap{Center: paris, RadiusKm: 100}
	flat := math.Pi * 100 * 100
	if got := c.AreaKm2(); math.Abs(got-flat)/flat > 0.001 {
		t.Errorf("small cap area %.1f differs from flat %.1f", got, flat)
	}
	// Whole-sphere cap covers the full surface.
	whole := Cap{Center: paris, RadiusKm: math.Pi * EarthRadiusKm}
	sphere := 4 * math.Pi * EarthRadiusKm * EarthRadiusKm
	if got := whole.AreaKm2(); math.Abs(got-sphere)/sphere > 1e-9 {
		t.Errorf("whole cap area %.0f, want %.0f", got, sphere)
	}
	if (Cap{Center: paris, RadiusKm: -5}).AreaKm2() != 0 {
		t.Error("negative radius cap has zero area")
	}
}

func TestRingContains(t *testing.T) {
	r := Ring{Center: paris, MinKm: 300, MaxKm: 400}
	if !r.Contains(london) { // ~344 km
		t.Error("London is in the 300-400 km ring around Paris")
	}
	if r.Contains(paris) {
		t.Error("center is inside MinKm, outside the ring")
	}
	if r.Contains(newYork) {
		t.Error("New York is beyond MaxKm")
	}
}

func TestMaxDistanceKm(t *testing.T) {
	if got := MaxDistanceKm(10, BaselineSpeedKmPerMs); got != 2000 {
		t.Errorf("10 ms at baseline = %f, want 2000", got)
	}
	if got := MaxDistanceKm(1e6, BaselineSpeedKmPerMs); got != HalfEquatorKm {
		t.Errorf("huge delay must clamp to half equator, got %f", got)
	}
	if got := MaxDistanceKm(-1, BaselineSpeedKmPerMs); got != 0 {
		t.Errorf("negative delay must clamp to 0, got %f", got)
	}
}

func TestSlowlineConstant(t *testing.T) {
	// The paper derives 84.5 km/ms from 20037.508 km / 237 ms.
	derived := HalfEquatorKm / GeostationaryOneWayMs
	if math.Abs(derived-SlowlineSpeedKmPerMs) > 0.1 {
		t.Errorf("slowline %f inconsistent with derivation %f", SlowlineSpeedKmPerMs, derived)
	}
}

func TestPointString(t *testing.T) {
	s := Point{Lat: -33.8688, Lon: 151.2093}.String()
	if s != "33.8688°S 151.2093°E" {
		t.Errorf("String() = %q", s)
	}
	s = Point{Lat: 40.7128, Lon: -74.0060}.String()
	if s != "40.7128°N 74.0060°W" {
		t.Errorf("String() = %q", s)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}
