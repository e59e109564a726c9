// Package worldmap is the library's substitute for the Natural Earth map
// the paper uses: a country atlas in which every country or territory is
// approximated by a union of spherical caps, plus continent assignments
// following the paper's Appendix A conventions (Mexico with Central
// America, Turkey and Russia with Europe, the Middle East with Africa,
// Malaysia and New Zealand with Oceania, Australia on its own).
//
// It supports the three operations the assessment pipeline needs:
// point→country lookup, country↔region overlap, and a land mask that
// excludes oceans and all terrain north of 85°N or south of 60°S
// (following Eriksson et al.'s external-facts advice quoted in §3).
package worldmap

import (
	"math"
	"sort"
	"strings"
	"sync"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
)

// Continent is the paper's eight-way continent scheme (Appendix A).
type Continent int

// Continents in the order used by the paper's Figure 22 confusion matrix.
const (
	Europe Continent = iota
	Africa           // includes the Middle East, per Appendix A
	Asia
	Oceania // includes Malaysia, Indonesia, New Zealand, Pacific islands
	NorthAmerica
	CentralAmerica // includes Mexico and the Caribbean
	SouthAmerica
	Australia
	numContinents
)

// NumContinents is the number of continent categories.
const NumContinents = int(numContinents)

var continentNames = [...]string{
	"Europe", "Africa", "Asia", "Oceania",
	"North America", "Central America", "South America", "Australia",
}

// String implements fmt.Stringer.
func (c Continent) String() string {
	if c < 0 || int(c) >= len(continentNames) {
		return "Unknown"
	}
	return continentNames[c]
}

// ParseContinent returns the continent whose String matches name, case
// insensitively; ok is false for any other name.
func ParseContinent(name string) (c Continent, ok bool) {
	for i, s := range continentNames {
		if strings.EqualFold(s, name) {
			return Continent(i), true
		}
	}
	return 0, false
}

// AllContinents lists every continent in Figure 22 order.
func AllContinents() []Continent {
	out := make([]Continent, NumContinents)
	for i := range out {
		out[i] = Continent(i)
	}
	return out
}

// Country is a country or territory. Its territory is approximated by a
// union of spherical caps; Ref is a reference point (capital or largest
// city) guaranteed to be inside the shape, used for placing hosts.
type Country struct {
	Code      string // ISO 3166-1 alpha-2, lowercase (as in Figure 17)
	Name      string
	Continent Continent
	Ref       geo.Point
	Shapes    []geo.Cap
}

// Contains reports whether p falls within any of the country's caps.
func (c *Country) Contains(p geo.Point) bool {
	for _, s := range c.Shapes {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// distanceScore returns the normalized distance of p to the country: 0 at
// a cap center, 1 on a cap boundary, >1 outside. Used to break ties when
// overlapping cap approximations both claim a point.
func (c *Country) distanceScore(p geo.Point) float64 {
	best := math.Inf(1)
	for _, s := range c.Shapes {
		if s.RadiusKm <= 0 {
			continue
		}
		if score := geo.DistanceKm(s.Center, p) / s.RadiusKm; score < best {
			best = score
		}
	}
	return best
}

// AreaKm2 returns the approximate land area of the country (sum of cap
// areas; overlapping caps are counted once only via a coarse grid).
func (c *Country) AreaKm2() float64 {
	var a float64
	for _, s := range c.Shapes {
		a += s.AreaKm2()
	}
	return a
}

var (
	countriesOnce sync.Once
	countryList   []*Country
	countryByCode map[string]*Country
)

func initCountries() {
	countriesOnce.Do(func() {
		countryList = buildCountries()
		sort.Slice(countryList, func(i, j int) bool {
			return countryList[i].Code < countryList[j].Code
		})
		countryByCode = make(map[string]*Country, len(countryList))
		for _, c := range countryList {
			countryByCode[c.Code] = c
		}
	})
}

// Countries returns all countries, sorted by code. The returned slice is
// shared; do not modify it.
func Countries() []*Country {
	initCountries()
	return countryList
}

// ByCode returns the country with the given ISO code, or nil.
func ByCode(code string) *Country {
	initCountries()
	return countryByCode[code]
}

// Locate returns the country containing p. When cap approximations of
// neighboring countries overlap, the country whose cap center is
// proportionally closest wins. Returns nil for open ocean or excluded
// latitudes.
func Locate(p geo.Point) *Country {
	initCountries()
	if p.Lat > 85 || p.Lat < -60 {
		return nil
	}
	var best *Country
	bestScore := math.Inf(1)
	for _, c := range countryList {
		if !c.Contains(p) {
			continue
		}
		if s := c.distanceScore(p); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// OnLand reports whether p is within some country's shape and inside the
// usable latitude band.
func OnLand(p geo.Point) bool { return Locate(p) != nil }

// Mask precomputes, for one grid, the land region and a region per
// country. Building a Mask is expensive (seconds at fine resolutions);
// reuse it.
type Mask struct {
	g      *grid.Grid
	land   *grid.Region
	byCode map[string]*grid.Region
	cellOf []string // country code per cell ("" = water/excluded)
}

// NewMask builds the land/country masks for g.
func NewMask(g *grid.Grid) *Mask {
	initCountries()
	m := &Mask{
		g:      g,
		land:   g.NewRegion(),
		byCode: make(map[string]*grid.Region, len(countryList)),
		cellOf: make([]string, g.NumCells()),
	}
	type claim struct {
		code  string
		score float64
	}
	bestClaim := make([]claim, g.NumCells())
	for i := range bestClaim {
		bestClaim[i] = claim{score: math.Inf(1)}
	}
	for _, c := range countryList {
		r := g.NewRegion()
		for _, s := range c.Shapes {
			r.AddCap(s)
		}
		// Latitude exclusion.
		r.Filter(func(p geo.Point) bool { return p.Lat <= 85 && p.Lat >= -60 })
		// Guarantee the reference point's cell is present even at coarse
		// resolutions (tiny island countries can fall between centers).
		ref := g.CellAt(c.Ref)
		if p := g.Center(ref); p.Lat <= 85 && p.Lat >= -60 {
			r.Add(ref)
		}
		m.byCode[c.Code] = r
		m.land.UnionWith(r)
		r.Each(func(i int) {
			s := c.distanceScore(g.Center(i))
			if s < bestClaim[i].score {
				bestClaim[i] = claim{code: c.Code, score: s}
			}
		})
	}
	for i, cl := range bestClaim {
		m.cellOf[i] = cl.code
	}
	return m
}

// Grid returns the grid the mask was built for.
func (m *Mask) Grid() *grid.Grid { return m.g }

// Land returns a fresh copy of the land region.
func (m *Mask) Land() *grid.Region { return m.land.Clone() }

// LandRef returns the shared land region; callers must not modify it.
func (m *Mask) LandRef() *grid.Region { return m.land }

// CountryRegion returns the shared region for the given country code, or
// nil. Callers must not modify it.
func (m *Mask) CountryRegion(code string) *grid.Region { return m.byCode[code] }

// CountryOfCell returns the country code owning cell i ("" for water).
func (m *Mask) CountryOfCell(i int) string { return m.cellOf[i] }

// Overlaps reports whether the region overlaps the country's territory.
func (m *Mask) Overlaps(r *grid.Region, code string) bool {
	cr := m.byCode[code]
	return cr != nil && r.IntersectsRegion(cr)
}

// Within reports whether the region lies entirely inside the country.
func (m *Mask) Within(r *grid.Region, code string) bool {
	cr := m.byCode[code]
	if cr == nil || r.Empty() {
		return false
	}
	outside := r.Clone()
	outside.SubtractWith(cr)
	// Cells that belong to no country (water) do not count against
	// containment: a coastal region's watery fringe is not evidence the
	// target is in another country.
	ok := true
	outside.Each(func(i int) {
		if m.cellOf[i] != "" {
			ok = false
		}
	})
	return ok
}

// CountriesOverlapping returns the codes of every country the region
// touches, sorted.
func (m *Mask) CountriesOverlapping(r *grid.Region) []string {
	seen := map[string]bool{}
	r.Each(func(i int) {
		if code := m.cellOf[i]; code != "" {
			seen[code] = true
		}
	})
	out := make([]string, 0, len(seen))
	for code := range seen {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// ContinentsOverlapping returns the set of continents the region touches.
func (m *Mask) ContinentsOverlapping(r *grid.Region) []Continent {
	seen := map[Continent]bool{}
	for _, code := range m.CountriesOverlapping(r) {
		if c := ByCode(code); c != nil {
			seen[c.Continent] = true
		}
	}
	out := make([]Continent, 0, len(seen))
	for cont := range seen {
		out = append(out, cont)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
