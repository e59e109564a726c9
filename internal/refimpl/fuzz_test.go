package refimpl

// FuzzIntersectOrArgmax holds geoloc.IntersectOrArgmax, whose coverage
// argmax returns the strict intersection of the constraint words when
// it is non-empty and otherwise runs the pruned count, with the
// majority rule on top, to intersectOrArgmaxReference over per-cell regions
// of the same distance slices. The seed corpus runs in every plain
// `go test`; `make fuzz-smoke` explores beyond it.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// fuzzResolutions are the grids the target runs on: the 2° grid ends in
// a partial word, and the 29° grid's 50 cells fill less than one.
var fuzzResolutions = []float64{2, 3, 5, 29}

var (
	fuzzEnvMu sync.Mutex
	fuzzEnvs  = map[float64]*geoloc.Env{}
)

// fuzzEnv returns a shared Env at the given resolution. The constraints
// need only its grid and caches, so it skips NewEnv's world map.
func fuzzEnv(res float64) *geoloc.Env {
	fuzzEnvMu.Lock()
	defer fuzzEnvMu.Unlock()
	env, ok := fuzzEnvs[res]
	if !ok {
		g := grid.New(res)
		m := grid.NewMaskCache(g, 64)
		env = &geoloc.Env{Grid: g, Masks: m, Field: m}
		fuzzEnvs[res] = env
	}
	return env
}

// ringCells is Env.RingConstraint as one per-cell loop over the
// landmark's cached distances: the two-sided predicate against the
// shrunk inner bound, then the center-cell rule.
func ringCells(env *geoloc.Env, id netsim.HostID, ring geo.Ring) *grid.Region {
	g := env.Grid
	r := g.NewRegion()
	shrink := math.Inf(-1)
	if ring.MinKm > 0 {
		if s := ring.MinKm - 1.5*grid.KmPerDeg*g.Resolution(); s > 0 {
			shrink = s
		}
	}
	if ring.MaxKm > 0 {
		for i, d := range env.Distances(id, ring.Center) {
			if dd := float64(d); dd <= ring.MaxKm && dd > shrink {
				r.Add(i)
			}
		}
	}
	if cc := g.CellAt(ring.Center); math.IsInf(shrink, -1) {
		r.Add(cc)
	} else {
		r.Remove(cc)
	}
	return r
}

func FuzzIntersectOrArgmax(f *testing.F) {
	// k = 0 and 1, all rings through the hub (strict path), a minority
	// of rings missing it (majority fallback), a majority missing it
	// (no prediction), on every grid.
	for i, k := range []uint8{0, 1, 2, 3, 5, 8, 13, 24, 39} {
		for _, liars := range []uint8{0, 1, uint8(k/2 + 1)} {
			f.Add(k, liars, uint8(i), int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, k, liars, res uint8, seed int64) {
		env := fuzzEnv(fuzzResolutions[int(res)%len(fuzzResolutions)])
		rng := rand.New(rand.NewSource(seed))
		hub := geo.Point{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}
		n := int(k) % 40
		cs := make([]grid.Constraint, 0, n)
		regions := make([]*grid.Region, 0, n)
		for j := 0; j < n; j++ {
			// Landmark IDs repeat across iterations; the position in the
			// key keeps each landmark's masks its own.
			id := netsim.HostID(fmt.Sprintf("lm-%d", j))
			p := geo.Point{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: rng.Float64()*360 - 180}
			d, width := geo.DistanceKm(p, hub), 100+rng.Float64()*2500
			u := rng.Float64()
			ring := geo.Ring{Center: p, MinKm: d - width*u, MaxKm: d + width*(1-u)}
			if j < int(liars)%(n+1) {
				// A liar's ring misses the hub by a few hundred km.
				shift := width + 300 + rng.Float64()*1000
				if rng.Intn(2) == 0 && ring.MinKm > shift {
					shift = -shift
				}
				ring.MinKm += shift
				ring.MaxKm += shift
			}
			cs = append(cs, env.RingConstraint(id, ring))
			regions = append(regions, ringCells(env, id, ring))
		}
		got := geoloc.IntersectOrArgmax(env.Grid, cs)
		want := intersectOrArgmaxReference(env.Grid, regions)
		if !got.Equal(want) {
			t.Fatalf("k %d liars %d res %v: %d cells, reference %d", n, int(liars)%(n+1), env.Grid.Resolution(), got.Count(), want.Count())
		}
	})
}
