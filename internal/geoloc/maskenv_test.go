package geoloc

// Env-level equivalence tests for the quantized mask cache: every
// geometry method must produce regions byte-identical to a per-cell
// scan of a freshly computed distance slice, across random and
// degenerate caps and rings.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// The per-cell oracles below bypass the geometry cache. They copy the grid package's test oracles, which a package
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

// ringOracle is RingConstraint as one per-cell loop: the two-sided
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

// diskRegion is the cells of the cap's disk constraint on the
// landmark's cached masks: AddCap's semantics, center cell included.
func diskRegion(env *Env, id netsim.HostID, c geo.Cap) *grid.Region {
	return env.Grid.Intersect([]grid.Constraint{grid.Disk(env.MasksFor(id, c.Center), env.Grid.CellAt(c.Center), c.RadiusKm)})
}

func randomPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
		Lon: 360*rng.Float64() - 180,
	}
}

// TestEnvMaskEquivalence: the disk constraint of a cap, RingConstraint
// and Distances must be byte-identical to the per-cell oracles,
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
			if got, want := diskRegion(env, id, cap), capOracle(env.Grid, cap); !got.Equal(want) {
				t.Fatalf("disk %v r=%v: constraint %d cells, per-cell %d", p, radius, got.Count(), want.Count())
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
			got, want := env.Grid.Intersect([]grid.Constraint{env.RingConstraint(id, ring)}), ringOracle(env.Grid, ring)
			if !got.Equal(want) {
				t.Fatalf("ring %+v: mask path %d cells, per-cell %d", ring, got.Count(), want.Count())
			}
		}
		if !slices.Equal(env.Distances(id, p), env.Grid.DistancesFrom(p)) {
			t.Fatalf("Distances(%s, %v) differs from a fresh DistancesFrom", id, p)
		}
	}
}

// TestInvalidateLandmark: eviction must drop the one entry a warmed
// landmark holds, whether warmed by a disk or by a distance lookup, and
// report zero for an unknown one. Field and Masks are one cache.
func TestInvalidateLandmark(t *testing.T) {
	env := NewEnv(5)
	if env.Field != env.Masks {
		t.Fatal("Env.Field is not the Masks cache")
	}
	p := geo.Point{Lat: 48.85, Lon: 2.35}
	diskRegion(env, "warm", geo.Cap{Center: p, RadiusKm: 1000})
	env.Distances("warm", p)
	if s := env.Masks.Stats(); s.Entries != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after a disk and a distance lookup: %+v, want 1 entry, 1 miss, 1 hit", s)
	}
	if n := env.InvalidateLandmark("warm"); n != 1 {
		t.Fatalf("InvalidateLandmark(warm) = %d, want 1", n)
	}
	if n := env.InvalidateLandmark("cold"); n != 0 {
		t.Fatalf("InvalidateLandmark(cold) = %d, want 0", n)
	}
}
