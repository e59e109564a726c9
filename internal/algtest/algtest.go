// Package algtest provides shared fixtures for the geolocation algorithm
// test suites: a lazily built constellation + environment, and helpers to
// generate measurement vectors for synthetic targets. It is test support
// code, kept out of _test files only so the five algorithm packages can
// share one (expensive) fixture.
package algtest

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

var (
	once sync.Once
	cons *atlas.Constellation
	env  *geoloc.Env
	mu   sync.Mutex
)

// Fixture returns a shared 80-anchor constellation (seed 11) and a 1.5°
// environment. Safe for concurrent use from tests.
func Fixture(t testing.TB) (*atlas.Constellation, *geoloc.Env) {
	t.Helper()
	once.Do(func() {
		net := netsim.New(11)
		rng := rand.New(rand.NewSource(11))
		var err error
		cons, err = atlas.Build(net, atlas.Config{Anchors: 80, Probes: 60, SamplesPerPair: 4}, rng)
		if err != nil {
			panic(err)
		}
		env = geoloc.NewEnv(1.5)
	})
	return cons, env
}

// MeasureTarget adds a host at loc (with a unique id) and measures
// min-of-3 RTTs to n landmarks, preferring nearby anchors the way a
// two-phase selection would.
func MeasureTarget(t testing.TB, c *atlas.Constellation, id string, loc geo.Point, n int, rng *rand.Rand) []geoloc.Measurement {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	host := c.Net().Host(netsim.HostID(id))
	if host == nil {
		host = &netsim.Host{ID: netsim.HostID(id), Loc: loc}
		if err := c.Net().AddHost(host); err != nil {
			t.Fatal(err)
		}
	}
	type cand struct {
		lm *atlas.Landmark
		d  float64
	}
	lms := c.Anchors()
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
	for i, cd := range cands {
		if len(ms) >= n {
			break
		}
		if i < 2*n/3 || i%5 == 0 {
			rtt, err := c.Net().MinOfSamples(host.ID, cd.lm.Host.ID, 3, rng)
			if err != nil {
				continue
			}
			ms = append(ms, geoloc.Measurement{
				LandmarkID: cd.lm.Host.ID,
				Landmark:   cd.lm.Host.Loc,
				RTTms:      rtt,
			})
		}
	}
	return ms
}

// TestCities is a world-spanning set of targets used across suites.
func TestCities() map[string]geo.Point {
	return map[string]geo.Point{
		"berlin":    {Lat: 52.52, Lon: 13.405},
		"madrid":    {Lat: 40.42, Lon: -3.70},
		"chicago":   {Lat: 41.88, Lon: -87.63},
		"saopaulo":  {Lat: -23.55, Lon: -46.63},
		"tokyo":     {Lat: 35.68, Lon: 139.65},
		"sydney":    {Lat: -33.87, Lon: 151.21},
		"joburg":    {Lat: -26.20, Lon: 28.05},
		"singapore": {Lat: 1.35, Lon: 103.82},
	}
}

// CityNames returns TestCities' names in sorted order, for suites that
// draw from one rng across cities and must do so in a fixed order.
func CityNames() []string {
	cities := TestCities()
	names := make([]string, 0, len(cities))
	for name := range cities {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Growth returns the number of cells of b outside a: 0 when b ⊆ a.
func Growth(a, b *grid.Region) int {
	out := b.Clone()
	out.SubtractWith(a)
	return out.Count()
}

// SeaFallback reports whether wide and narrow, two regions returned
// through geoloc.Env.ApplyExclusions, are the case in which the
// exclusions break monotonicity: wide kept a land cell, and narrow kept
// none, so narrow holds the sea cells its fallback returns and wide
// holds only land.
func SeaFallback(env *geoloc.Env, wide, narrow *grid.Region) bool {
	land := env.Mask.LandRef()
	return !narrow.Empty() && wide.IntersectsRegion(land) && !narrow.IntersectsRegion(land)
}

// ScaleRTTs returns a copy of ms with every RTT multiplied by f.
func ScaleRTTs(ms []geoloc.Measurement, f float64) []geoloc.Measurement {
	out := make([]geoloc.Measurement, len(ms))
	for i, m := range ms {
		m.RTTms *= f
		out[i] = m
	}
	return out
}
