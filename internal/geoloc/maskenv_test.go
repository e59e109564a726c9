package geoloc

// Env-level equivalence tests for the quantized mask cache: every
// geometry method must produce regions byte-identical to a per-cell
// scan of a freshly computed distance slice, across random and
// degenerate caps and rings.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// The per-cell oracles below bypass both the DistanceField and the mask
// cache. They copy the grid package's test oracles, which a package
// geoloc test cannot reach (and refimpl imports geoloc, so importing it
// here would be a cycle).

// capOracle adds every cell within the cap's radius of its center, plus
// the center's own cell (AddCap's rule).
func capOracle(g *grid.Grid, c geo.Cap) *grid.Region {
	r := g.NewRegion()
	r.Add(g.CellAt(c.Center))
	if c.RadiusKm <= 0 {
		return r
	}
	for i, d := range g.DistancesFrom(c.Center) {
		if float64(d) <= c.RadiusKm {
			r.Add(i)
		}
	}
	return r
}

// ringOracle is RingRegionFor as one per-cell loop: the two-sided
// predicate against the shrunk inner bound, then the center-cell rule.
func ringOracle(g *grid.Grid, ring geo.Ring) *grid.Region {
	r := g.NewRegion()
	shrink := math.Inf(-1)
	if ring.MinKm > 0 {
		if s := ring.MinKm - 1.5*grid.KmPerDeg*g.Resolution(); s > 0 {
			shrink = s
		}
	}
	if ring.MaxKm > 0 {
		for i, d := range g.DistancesFrom(ring.Center) {
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

// intersectOracle removes every cell of r farther than maxKm from p.
func intersectOracle(r *grid.Region, p geo.Point, maxKm float64) {
	dist := r.Grid().DistancesFrom(p)
	r.Each(func(i int) {
		if float64(dist[i]) > maxKm {
			r.Remove(i)
		}
	})
}

func randomPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
		Lon: 360*rng.Float64() - 180,
	}
}

// TestEnvMaskEquivalence: CapRegionFor, RingRegionFor and
// IntersectWithinFor must be byte-identical to the per-cell oracles,
// including degenerate radii (≤ 0), rings with no usable inner bound,
// inverted rings, and radii past the antipode.
func TestEnvMaskEquivalence(t *testing.T) {
	env := NewEnv(4)
	rng := rand.New(rand.NewSource(91))
	for k := 0; k < 25; k++ {
		id := netsim.HostID(fmt.Sprintf("lm-%d", k%7)) // repeats → cache hits
		p := randomPoint(rng)
		radii := []float64{
			rng.Float64() * geo.HalfEquatorKm,
			-10, 0, 1e-9,
			grid.MaskStepKm,
			math.Pi*geo.EarthRadiusKm + 50,
		}
		for _, radius := range radii {
			cap := geo.Cap{Center: p, RadiusKm: radius}
			got, want := env.CapRegionFor(id, cap), capOracle(env.Grid, cap)
			if !got.Equal(want) {
				t.Fatalf("cap %v r=%v: mask path %d cells, per-cell %d", p, radius, got.Count(), want.Count())
			}
		}
		rings := []geo.Ring{
			{Center: p, MinKm: rng.Float64() * 3000, MaxKm: rng.Float64() * geo.HalfEquatorKm},
			{Center: p, MinKm: 0, MaxKm: 2500},
			{Center: p, MinKm: 10, MaxKm: 2500},   // shrink stays negative → unbounded inner edge
			{Center: p, MinKm: 6000, MaxKm: 4000}, // inverted
			{Center: p, MinKm: 0, MaxKm: 0},       // empty outer
		}
		for _, ring := range rings {
			got, want := env.RingRegionFor(id, ring), ringOracle(env.Grid, ring)
			if !got.Equal(want) {
				t.Fatalf("ring %+v: mask path %d cells, per-cell %d", ring, got.Count(), want.Count())
			}
		}
		base := env.Grid.CapRegion(geo.Cap{Center: randomPoint(rng), RadiusKm: 4000 + rng.Float64()*8000})
		maxKm := rng.Float64() * geo.HalfEquatorKm
		a := base.Clone()
		env.IntersectWithinFor(a, id, p, maxKm)
		b := base.Clone()
		intersectOracle(b, p, maxKm)
		if !a.Equal(b) {
			t.Fatalf("intersect maxKm=%v: mask path %d cells, per-cell %d", maxKm, a.Count(), b.Count())
		}
	}
}

// TestInvalidateLandmark: eviction must hit both caches for a warmed
// landmark and report zero for an unknown one.
func TestInvalidateLandmark(t *testing.T) {
	env := NewEnv(5)
	p := geo.Point{Lat: 48.85, Lon: 2.35}
	env.CapRegionFor("warm", geo.Cap{Center: p, RadiusKm: 1000})
	if f, m := env.InvalidateLandmark("warm"); f != 1 || m != 1 {
		t.Fatalf("InvalidateLandmark(warm) = (%d fields, %d masks), want (1, 1)", f, m)
	}
	if f, m := env.InvalidateLandmark("cold"); f != 0 || m != 0 {
		t.Fatalf("InvalidateLandmark(cold) = (%d, %d), want (0, 0)", f, m)
	}
}
