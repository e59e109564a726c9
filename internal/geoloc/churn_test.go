package geoloc

// Churn-storm regression for the landmark geometry cache (MaskCache):
// rounds of decommission / re-provision / recalibration
// must never leave stale geometry servable. Every check compares
// against a freshly computed oracle that bypasses both caches, so a
// stale mask or distance slice surviving churn fails byte-identically.

import (
	"math/rand"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

func TestMaskCacheChurnStorm(t *testing.T) {
	net := netsim.New(4242)
	rng := rand.New(rand.NewSource(4242))
	cons, err := atlas.Build(net, atlas.Config{Anchors: 16, SamplesPerPair: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(4)

	// oracle recomputes the cap region from scratch — no cached
	// distances, no masks — with the same predicate the cached paths promise.
	oracle := func(p geo.Point, radius float64) *grid.Region {
		return capOracle(env.Grid, geo.Cap{Center: p, RadiusKm: radius})
	}

	check := func(round int) {
		for _, lm := range cons.Anchors() {
			radius := 500 + rng.Float64()*8000
			got := diskRegion(env, lm.Host.ID, geo.Cap{Center: lm.Host.Loc, RadiusKm: radius})
			if want := oracle(lm.Host.Loc, radius); !got.Equal(want) {
				t.Fatalf("round %d: stale geometry served for %s at %v (%d vs %d cells)",
					round, lm.Host.ID, lm.Host.Loc, got.Count(), want.Count())
			}
		}
	}

	check(0)
	for round := 1; round <= 12; round++ {
		cons.Decommission(2, rng)
		if _, err := cons.AddAnchors(2, rng); err != nil {
			t.Fatal(err)
		}
		cons.RefreshCalibration(1, rng)
		check(round)
	}

	// Moved host: the same ID re-provisioned elsewhere must be served the
	// new position's geometry — position is part of the cache key, so the
	// stale family cannot match.
	lm := cons.Anchors()[0]
	moved := geo.DestinationPoint(lm.Host.Loc, 45, 1200)
	got := diskRegion(env, lm.Host.ID, geo.Cap{Center: moved, RadiusKm: 3000})
	if want := oracle(moved, 3000); !got.Equal(want) {
		t.Fatalf("moved host %s served stale masks (%d vs %d cells)", lm.Host.ID, got.Count(), want.Count())
	}
}
