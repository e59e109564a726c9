package experiments

import (
	"math/rand"
	"testing"

	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
)

// TestLocateAllocs holds the allocation savings of the constraint form
// (grid.Constraint), the strict-first coverage argmax and the map-free
// geoloc.Collapse: the mean allocations of one Locate over the honest
// two-phase vectors of the quick fleet's first 48 servers, the vectors
// the audit-quick benchmark's locate probe uses, once every landmark's
// masks are cached. Before the constraint form CBG++ made 196, Octant
// 165 and Hybrid 101; with it they made 24, 16.3 and 16.2, and with
// the other two changes 6.5, 6.3 and 6.2. Each bound of 12 leaves
// about that much again as headroom.
func TestLocateAllocs(t *testing.T) {
	l := lab(t)
	var vecs [][]geoloc.Measurement
	for _, s := range l.Fleet.Servers()[:48] {
		rng := rand.New(rand.NewSource(measure.StreamSeed(l.Cfg.Seed, s.Host.ID)))
		res, err := measure.ProxiedTwoPhase(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, rng)
		if err != nil {
			continue
		}
		vecs = append(vecs, res.Measurements())
	}
	if len(vecs) == 0 {
		t.Fatal("no server measured")
	}
	for _, tc := range []struct {
		alg geoloc.Algorithm
		max float64
	}{
		{l.CBGpp, 12},
		{l.Octant, 12},
		{l.Hybrid, 12},
	} {
		got := testing.AllocsPerRun(2, func() {
			for _, v := range vecs {
				if _, err := tc.alg.Locate(v); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(vecs))
		t.Logf("%s: %.1f allocs per Locate (bound %.0f)", tc.alg.Name(), got, tc.max)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per Locate, bound %.0f", tc.alg.Name(), got, tc.max)
		}
	}
}

// TestMeasureAllocs holds the allocation savings of the constellation's
// precomputed continent groups (atlas.Constellation.Select's pools): the
// mean allocations of one honest measure.ProxiedTwoPhase over the quick
// fleet's first 48 servers, each on its own stream re-seeded in place so
// that building the streams is not counted. When every run regrouped the
// landmarks a run made 95; with the landmarks grouped, 53; with the
// anchors grouped too and each draw permuting landmarks in one slice,
// 24. Resolving each leg once
// (netsim.Path) saves time, not allocations: the netsim primitives
// allocate nothing either way (TestHotPathsDoNotAllocate).
func TestMeasureAllocs(t *testing.T) {
	l := lab(t)
	servers := l.Fleet.Servers()[:48]
	rngs := make([]*rand.Rand, len(servers))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(1))
	}
	measured := 0
	got := testing.AllocsPerRun(2, func() {
		measured = 0
		for i, s := range servers {
			rngs[i].Seed(measure.StreamSeed(l.Cfg.Seed, s.Host.ID))
			if _, err := measure.ProxiedTwoPhase(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, rngs[i]); err == nil {
				measured++
			}
		}
	}) / float64(len(servers))
	if measured == 0 {
		t.Fatal("no server measured")
	}
	const max = 64
	t.Logf("%.1f allocs per ProxiedTwoPhase over %d servers (bound %d)", got, len(servers), max)
	if got > max {
		t.Errorf("%.1f allocs per ProxiedTwoPhase, bound %d", got, max)
	}
}
