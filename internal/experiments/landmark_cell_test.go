package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// TestLandmarkCellWithinPad pins the condition under which CBG's disk
// constraints equal the plain caps of refimpl.CBG: a disk constraint
// always keeps its landmark's own cell, a cap only when the cell's
// center lies within the radius, and every CBG radius is at least
// PadKm (0.8 cell). So every landmark of the quick, paper and
// adversary-bench constellations must lie nearer than PadKm to its own
// cell's center, on its lab's grid and on a 3° grid.
//
// On the grid as a whole the condition fails only in the two polar
// bands, whose three 120°-wide cells reach farther than PadKm from
// their centers: 89–90° at 1° (96.3 km against a pad of 89.0), 88.5–90°
// at 1.5°, 88–90° at 2°, and 87–90° at 3° (288.9 km against 266.9).
// The next band in (84–87° at 3°) reaches 260.7 km and holds. No
// landmark lies in a polar band.
func TestLandmarkCellWithinPad(t *testing.T) {
	for _, cfg := range []Config{QuickConfig(), PaperConfig(), AdversaryBenchConfig()} {
		cons, err := buildConstellation(cfg, netsim.New(cfg.Seed), rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		landmarks := slices.Concat(cons.Anchors(), cons.Probes())
		if len(landmarks) != cfg.Anchors+cfg.Probes {
			t.Fatalf("seed %d: %d landmarks, want %d", cfg.Seed, len(landmarks), cfg.Anchors+cfg.Probes)
		}
		for _, res := range []float64{cfg.GridResDeg, 3} {
			env := &geoloc.Env{Grid: grid.New(res)}
			pad := env.PadKm()
			for _, lm := range landmarks {
				p := lm.Host.Loc
				if d := geo.DistanceKm(p, env.Grid.Center(env.Grid.CellAt(p))); d >= pad {
					t.Errorf("seed %d, %d anchors, %v° grid: %s at %v is %.1f km from its cell's center, pad %.1f km",
						cfg.Seed, cfg.Anchors, res, lm.Host.ID, p, d, pad)
				}
			}
		}
	}
}
