package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// diskOn is the disk constraint of radius rKm around p, on masks built
// from a fresh distance slice.
func diskOn(g *Grid, p geo.Point, rKm float64) Constraint {
	return Disk(newCapMasks(g, g.DistancesFrom(p), nil), g.CellAt(p), rKm)
}

func TestCoverageArgmax(t *testing.T) {
	g := New(2.0)
	a := diskOn(g, geo.Point{Lat: 50, Lon: 10}, 1000)
	b := diskOn(g, geo.Point{Lat: 51, Lon: 12}, 1000)
	c := diskOn(g, geo.Point{Lat: -30, Lon: 140}, 1000) // disjoint

	best, count := g.CoverageArgmax([]Constraint{a, b, c})
	if count != 2 {
		t.Fatalf("max count = %d, want 2", count)
	}
	// The argmax region is exactly the a∩b lens.
	if ab := g.Intersect([]Constraint{a, b}); !best.Equal(ab) {
		t.Errorf("argmax %d cells, a∩b lens %d cells", best.Count(), ab.Count())
	}
	// A tie: two disjoint disks each covered once are both the argmax.
	best, count = g.CoverageArgmax([]Constraint{a, c})
	ac := g.Intersect([]Constraint{a})
	ac.UnionWith(g.Intersect([]Constraint{c}))
	if count != 1 || !best.Equal(ac) {
		t.Errorf("tie: count %d with %d cells, want 1 with a∪c's %d", count, best.Count(), ac.Count())
	}
	// Degenerate cases.
	empty, count := g.CoverageArgmax(nil)
	if count != 0 || !empty.Empty() {
		t.Error("empty input should give empty region")
	}
	if !g.Intersect(nil).Empty() {
		t.Error("no constraints should intersect to an empty region")
	}
}

// argmaxBenchCaps are n seeded CBG++-like disks: landmarks spread over
// the sphere, each radius the landmark's distance to one target plus a
// random overestimate, so every disk covers the target and the largest
// consistent subset is all of them.
func argmaxBenchCaps(n int) []geo.Cap {
	rng := rand.New(rand.NewSource(7))
	target := geo.Point{Lat: 48.8566, Lon: 2.3522}
	caps := make([]geo.Cap, n)
	for i := range caps {
		c := randomCap(rng)
		c.RadiusKm = geo.DistanceKm(c.Center, target)*(1+0.3*rng.Float64()) + 200
		caps[i] = c
	}
	return caps
}

// BenchmarkCoverageArgmax times one largest-consistent-subset search
// over 40 disk constraints, on the locate-replay (1.0°) and audit-quick
// (1.5°) grid resolutions.
func BenchmarkCoverageArgmax(b *testing.B) {
	for _, res := range []float64{1.0, 1.5} {
		b.Run(fmt.Sprintf("res=%.1f", res), func(b *testing.B) {
			g := New(res)
			var cs []Constraint
			for _, c := range argmaxBenchCaps(40) {
				cs = append(cs, diskOn(g, c.Center, c.RadiusKm))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CoverageArgmax(cs)
			}
		})
	}
}
