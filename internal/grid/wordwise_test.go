package grid

// Tests for the word-wise region reductions: the per-band popcount area
// sum and the keep-mask Filter, each checked against its bit-by-bit
// oracle.

import (
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// randomRegion builds a region from a few random caps minus a random
// cap, so it has ragged boundaries, multiple bands, and holes.
func randomRegion(g *Grid, rng *rand.Rand) *Region {
	r := g.NewRegion()
	for k := 0; k < 1+rng.Intn(3); k++ {
		r.AddCap(randomCap(rng))
	}
	hole := g.NewRegion()
	hole.AddCap(randomCap(rng))
	r.SubtractWith(hole)
	return r
}

// TestAreaKm2MatchesReference: the word-wise per-band sum must agree
// with the sequential per-cell sum. The two accumulate in different
// orders (n equal terms multiplied vs added one by one), so agreement is
// up to relative rounding, not bit-exact.
func TestAreaKm2MatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 100; k++ {
		r := randomRegion(g, rng)
		got, want := r.AreaKm2(), areaKm2Reference(r)
		if want == 0 {
			if got != 0 {
				t.Fatalf("empty region: got area %v, want 0", got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("region %d cells: AreaKm2 %v vs reference %v (rel %.3g)", r.Count(), got, want, rel)
		}
	}
	empty := g.NewRegion()
	if a := empty.AreaKm2(); a != 0 {
		t.Fatalf("empty region area = %v, want 0", a)
	}
	full := g.FullRegion()
	sphere := 4 * math.Pi * geo.EarthRadiusKm * geo.EarthRadiusKm
	if rel := math.Abs(full.AreaKm2()-sphere) / sphere; rel > 1e-9 {
		t.Fatalf("full region area %v, want sphere %v", full.AreaKm2(), sphere)
	}
}

// TestCountInRange checks the word-masked popcount against a brute
// count, including unaligned and cross-word ranges.
func TestCountInRange(t *testing.T) {
	g := New(3)
	rng := rand.New(rand.NewSource(33))
	r := randomRegion(g, rng)
	for k := 0; k < 200; k++ {
		lo := rng.Intn(g.total+10) - 5
		hi := lo + rng.Intn(200)
		want := 0
		for i := lo; i < hi; i++ {
			if i >= 0 && i < g.total && r.Contains(i) {
				want++
			}
		}
		if got := r.countInRange(lo, hi); got != want {
			t.Fatalf("countInRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

// TestFilterMatchesReference: the word-wise keep-mask Filter applies
// the identical predicate to the identical cells, so the resulting
// bitsets must be byte-identical to the bit-by-bit reference — for
// ragged geometric predicates and for keep-all/drop-all extremes.
func TestFilterMatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(34))
	preds := []func(p geo.Point) bool{
		func(p geo.Point) bool { return p.Lat <= 85 && p.Lat >= -60 },
		func(p geo.Point) bool { return p.Lon > 10 || p.Lat < -20 },
		func(p geo.Point) bool { return math.Mod(math.Abs(p.Lat)+math.Abs(p.Lon), 7) < 3.5 },
		func(p geo.Point) bool { return true },
		func(p geo.Point) bool { return false },
	}
	for k := 0; k < 50; k++ {
		r := randomRegion(g, rng)
		keep := preds[k%len(preds)]
		a, b := r.Clone(), r.Clone()
		a.Filter(keep)
		filterReference(b, keep)
		if !a.Equal(b) {
			t.Fatalf("trial %d: Filter differs from reference (%d vs %d cells)", k, a.Count(), b.Count())
		}
	}
}
