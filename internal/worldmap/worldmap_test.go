package worldmap

import (
	"strings"
	"testing"

	"activegeo/internal/datacenter"
	"activegeo/internal/geo"
	"activegeo/internal/grid"
)

func TestEveryDataCenterInsideItsCountry(t *testing.T) {
	for _, dc := range datacenter.All() {
		c := ByCode(dc.Country)
		if c == nil {
			t.Errorf("DC %s references unknown country %q", dc.ID, dc.Country)
			continue
		}
		// A server can be scattered up to ~15 km from the DC; require
		// slack so scattered hosts stay in-country too.
		covered := false
		for _, s := range c.Shapes {
			if geo.DistanceKm(s.Center, dc.Loc) <= s.RadiusKm-20 {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("DC %s (%s) at %v not comfortably inside %s", dc.ID, dc.City, dc.Loc, dc.Country)
		}
	}
}

func TestCountriesWellFormed(t *testing.T) {
	cs := Countries()
	if len(cs) < 150 {
		t.Fatalf("atlas has only %d countries", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if c.Code == "" || c.Name == "" {
			t.Errorf("country with empty code/name: %+v", c)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		if len(c.Shapes) == 0 {
			t.Errorf("%s has no shapes", c.Code)
		}
		if !c.Ref.Valid() {
			t.Errorf("%s has invalid ref %v", c.Code, c.Ref)
		}
		if !c.Contains(c.Ref) {
			t.Errorf("%s: reference point %v outside own shapes", c.Code, c.Ref)
		}
		if c.Continent < 0 || int(c.Continent) >= NumContinents {
			t.Errorf("%s has bad continent %d", c.Code, c.Continent)
		}
	}
}

func TestByCode(t *testing.T) {
	if c := ByCode("de"); c == nil || c.Name != "Germany" {
		t.Errorf("ByCode(de) = %+v", c)
	}
	if ByCode("zz") != nil {
		t.Error("ByCode(zz) should be nil")
	}
}

func TestLocateKnownCities(t *testing.T) {
	cases := []struct {
		name string
		p    geo.Point
		want string
	}{
		{"berlin", geo.Point{Lat: 52.52, Lon: 13.405}, "de"},
		{"amsterdam", geo.Point{Lat: 52.37, Lon: 4.89}, "nl"},
		{"prague", geo.Point{Lat: 50.075, Lon: 14.44}, "cz"},
		{"new-york", geo.Point{Lat: 40.71, Lon: -74.01}, "us"},
		{"toronto", geo.Point{Lat: 43.65, Lon: -79.38}, "ca"},
		{"sydney", geo.Point{Lat: -33.87, Lon: 151.21}, "au"},
		{"tokyo", geo.Point{Lat: 35.68, Lon: 139.65}, "jp"},
		{"singapore", geo.Point{Lat: 1.35, Lon: 103.82}, "sg"},
		{"sao-paulo", geo.Point{Lat: -23.55, Lon: -46.63}, "br"},
		{"moscow", geo.Point{Lat: 55.76, Lon: 37.62}, "ru"},
		{"pyongyang", geo.Point{Lat: 39.02, Lon: 125.74}, "kp"},
		{"hong-kong", geo.Point{Lat: 22.32, Lon: 114.17}, "hk"},
		{"johannesburg", geo.Point{Lat: -26.20, Lon: 28.05}, "za"},
		{"pitcairn", geo.Point{Lat: -25.07, Lon: -130.10}, "pn"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Locate(c.p)
			if got == nil {
				t.Fatalf("Locate(%v) = nil, want %s", c.p, c.want)
			}
			if got.Code != c.want {
				t.Errorf("Locate(%v) = %s, want %s", c.p, got.Code, c.want)
			}
		})
	}
}

func TestLocateRefRoundTrip(t *testing.T) {
	// Every country's reference point must locate back to that country —
	// including microstates enclosed by bigger neighbors (Vatican, San
	// Marino, Monaco), which the normalized-distance tie-break protects.
	for _, c := range Countries() {
		if c.Ref.Lat > 85 || c.Ref.Lat < -60 {
			continue
		}
		got := Locate(c.Ref)
		if got == nil {
			t.Errorf("%s: ref %v locates to open ocean", c.Code, c.Ref)
			continue
		}
		if got.Code != c.Code {
			t.Errorf("%s: ref locates to %s", c.Code, got.Code)
		}
	}
}

func TestLocateOpenOcean(t *testing.T) {
	oceans := []geo.Point{
		{Lat: 0, Lon: -30},    // mid-Atlantic
		{Lat: -40, Lon: -120}, // south Pacific
		{Lat: 35, Lon: -150},  // north Pacific
	}
	for _, p := range oceans {
		if c := Locate(p); c != nil {
			t.Errorf("Locate(%v) = %s, want open ocean", p, c.Code)
		}
	}
}

func TestLocateExcludedLatitudes(t *testing.T) {
	if Locate(geo.Point{Lat: 88, Lon: 0}) != nil {
		t.Error("north of 85°N must be excluded")
	}
	if Locate(geo.Point{Lat: -70, Lon: 0}) != nil {
		t.Error("south of 60°S must be excluded")
	}
}

func TestContinentAssignments(t *testing.T) {
	// The paper's Appendix A conventions.
	cases := map[string]Continent{
		"mx": CentralAmerica,
		"tr": Europe,
		"ru": Europe,
		"sa": Africa, // Middle East with Africa
		"il": Africa,
		"my": Oceania,
		"nz": Oceania,
		"au": Australia,
		"ir": Asia,
		"kz": Asia,
		"us": NorthAmerica,
		"br": SouthAmerica,
	}
	for code, want := range cases {
		c := ByCode(code)
		if c == nil {
			t.Errorf("missing country %s", code)
			continue
		}
		if c.Continent != want {
			t.Errorf("%s continent = %v, want %v", code, c.Continent, want)
		}
	}
}

func TestContinentString(t *testing.T) {
	if Europe.String() != "Europe" || Australia.String() != "Australia" {
		t.Error("continent names wrong")
	}
	if Continent(99).String() != "Unknown" {
		t.Error("out-of-range continent should be Unknown")
	}
	if len(AllContinents()) != NumContinents {
		t.Error("AllContinents size")
	}
}

// TestParseContinent: every continent round-trips through its name in
// any case, and no other name parses — "Unknown" included.
func TestParseContinent(t *testing.T) {
	for _, c := range AllContinents() {
		for _, name := range []string{c.String(), strings.ToUpper(c.String()), strings.ToLower(c.String())} {
			if got, ok := ParseContinent(name); !ok || got != c {
				t.Errorf("ParseContinent(%q) = %v, %v; want %v", name, got, ok, c)
			}
		}
	}
	for _, name := range []string{"", "Atlantis", "Unknown", "NorthAmerica", " Europe"} {
		if _, ok := ParseContinent(name); ok {
			t.Errorf("ParseContinent(%q) parsed", name)
		}
	}
}

func newTestMask(t testing.TB) *Mask {
	t.Helper()
	return NewMask(grid.New(2.0))
}

func TestMaskLandCoversRefs(t *testing.T) {
	m := newTestMask(t)
	land := m.LandRef()
	for _, c := range Countries() {
		if c.Ref.Lat > 85 || c.Ref.Lat < -60 {
			continue
		}
		if !land.ContainsPoint(c.Ref) {
			t.Errorf("land mask misses %s ref %v", c.Code, c.Ref)
		}
	}
}

func TestMaskCountryRegion(t *testing.T) {
	m := newTestMask(t)
	de := m.CountryRegion("de")
	if de == nil || de.Empty() {
		t.Fatal("Germany region missing/empty")
	}
	if !de.ContainsPoint(geo.Point{Lat: 52.52, Lon: 13.405}) {
		t.Error("Germany region misses Berlin")
	}
	if m.CountryRegion("zz") != nil {
		t.Error("unknown code should have nil region")
	}
}

func TestMaskOverlapsAndWithin(t *testing.T) {
	g := grid.New(2.0)
	m := NewMask(g)

	// A small region around Berlin lies within Germany.
	berlin := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 52.52, Lon: 13.405}, RadiusKm: 100})
	berlin.IntersectWith(m.LandRef())
	if !m.Overlaps(berlin, "de") {
		t.Error("Berlin region should overlap Germany")
	}
	if !m.Within(berlin, "de") {
		t.Error("Berlin region should be within Germany")
	}
	if m.Overlaps(berlin, "kp") {
		t.Error("Berlin region should not overlap North Korea")
	}

	// The Figure 1 scenario: a Benelux-scale region overlaps several
	// countries but is not within any single one.
	benelux := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 50.8, Lon: 4.4}, RadiusKm: 400})
	benelux.IntersectWith(m.LandRef())
	codes := m.CountriesOverlapping(benelux)
	want := map[string]bool{"be": true, "nl": true, "de": true, "fr": true}
	found := 0
	for _, code := range codes {
		if want[code] {
			found++
		}
	}
	if found < 4 {
		t.Errorf("Benelux region overlaps %v, want it to cover be/nl/de/fr", codes)
	}
	if m.Within(benelux, "be") {
		t.Error("400 km region is not within Belgium alone")
	}
}

func TestMaskContinentsOverlapping(t *testing.T) {
	g := grid.New(2.0)
	m := NewMask(g)
	// A region spanning the Bosphorus area touches Europe and Africa
	// (Middle East) at least.
	r := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 36.5, Lon: 36.0}, RadiusKm: 700})
	r.IntersectWith(m.LandRef())
	conts := m.ContinentsOverlapping(r)
	if len(conts) < 2 {
		t.Errorf("expected multiple continents, got %v", conts)
	}
}

func TestMaskWithinEmptyRegion(t *testing.T) {
	g := grid.New(2.0)
	m := NewMask(g)
	if m.Within(g.NewRegion(), "de") {
		t.Error("empty region is not within anything")
	}
}

func TestCellOfConsistency(t *testing.T) {
	g := grid.New(2.0)
	m := NewMask(g)
	land := m.LandRef()
	land.Each(func(i int) {
		if m.CountryOfCell(i) == "" {
			t.Fatalf("land cell %d has no owner", i)
		}
	})
}

func TestCountryArea(t *testing.T) {
	de := ByCode("de")
	a := de.AreaKm2()
	// Germany is ~357k km²; cap-union approximation should be within 3x.
	if a < 150e3 || a > 1.2e6 {
		t.Errorf("Germany approximate area %.0f km² wildly off", a)
	}
	if ByCode("va").AreaKm2() > 100 {
		t.Error("Vatican should be tiny")
	}
}

func BenchmarkLocate(b *testing.B) {
	p := geo.Point{Lat: 48.85, Lon: 2.35}
	for i := 0; i < b.N; i++ {
		Locate(p)
	}
}

func BenchmarkNewMask(b *testing.B) {
	g := grid.New(2.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMask(g)
	}
}
