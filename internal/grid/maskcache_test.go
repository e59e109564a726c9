package grid

// Tests for the per-landmark quantized mask cache: the bracket
// invariant (inner mask ⊆ exact region ⊆ outer mask) across grid
// resolutions and degenerate radii, byte-identical equivalence of the
// disk, multi-disk and ring constraints against the per-cell oracles in
// oracle_test.go, and the LRU / invalidation / shared-build behaviour of
// the cache itself (distfield_test.go checks the distances it serves).

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/geo"
)

// maskTestRadii returns the stress radii for one trial: the
// quantization boundaries themselves (exactly q·step, one ULP either
// side), degenerate values (negative, zero, -Inf via callers),
// antipodal and beyond-antipodal distances, plus random draws.
func maskTestRadii(rng *rand.Rand) []float64 {
	maxSphere := math.Pi * geo.EarthRadiusKm
	radii := []float64{
		-5, 0, 1e-9,
		MaskStepKm, math.Nextafter(MaskStepKm, 0), math.Nextafter(MaskStepKm, math.Inf(1)),
		3 * MaskStepKm, 3*MaskStepKm - 1e-9,
		maxSphere, maxSphere + 100, geo.HalfEquatorKm,
	}
	for k := 0; k < 8; k++ {
		radii = append(radii, rng.Float64()*geo.HalfEquatorKm)
	}
	return radii
}

// TestMaskBracketInvariant: for every radius, the inner bracketing mask
// must be a subset of the exact region and the exact region a subset of
// the outer bracketing mask — across resolutions, with pole-centered
// and equatorial landmarks and degenerate radii.
func TestMaskBracketInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, res := range []float64{5.0, 2.5, 1.5} {
		g := New(res)
		centers := []geo.Point{
			{Lat: 89.9, Lon: 12},  // pole-crossing caps
			{Lat: -89.9, Lon: -7}, // south pole
			{Lat: 0, Lon: 179.9},  // antimeridian
			randomCap(rng).Center,
			randomCap(rng).Center,
		}
		for _, p := range centers {
			dist := g.DistancesFrom(p)
			cm := newCapMasks(g, dist, nil)
			for _, rKm := range maskTestRadii(rng) {
				lo, hi := cm.bracket(rKm)
				inner, _ := cm.level(lo)
				outer, _ := cm.level(hi)
				for i, d := range dist {
					w, bit := i/64, uint64(1)<<uint(i%64)
					exact := float64(d) <= rKm
					in := inner[w]&bit != 0
					out := outer[w]&bit != 0
					if in && !exact {
						t.Fatalf("res %v radius %v cell %d (dist %v): inner mask ⊄ exact region (lo=%d)", res, rKm, i, d, lo)
					}
					if exact && !out {
						t.Fatalf("res %v radius %v cell %d (dist %v): exact region ⊄ outer mask (hi=%d)", res, rKm, i, d, hi)
					}
				}
			}
		}
	}
}

// TestMaskFillWithinKmMatchesAddWithinKm: a disk constraint, the
// word-wise cap fill with its center-cell rule, must be byte-identical
// to the per-cell addWithinKm oracle over the same distance slice.
func TestMaskFillWithinKmMatchesAddWithinKm(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(72))
	for k := 0; k < 40; k++ {
		c := randomCap(rng)
		dist := g.DistancesFrom(c.Center)
		cm := newCapMasks(g, dist, nil)
		center := g.CellAt(c.Center)
		for _, rKm := range maskTestRadii(rng) {
			a := g.Intersect([]Constraint{Disk(cm, center, rKm)})
			b := g.NewRegion()
			addWithinKm(b, dist, rKm, center)
			if !a.Equal(b) {
				t.Fatalf("cap %v radius %v: disk differs from addWithinKm (%d vs %d cells)",
					c.Center, rKm, a.Count(), b.Count())
			}
		}
	}
}

// TestMaskIntersectWithinKmMatches: the strict intersection of several
// disk constraints — CBG's whole multilateration — must be
// byte-identical to intersecting the per-cell addWithinKm regions, for
// landmarks clustered enough that the disks often overlap.
func TestMaskIntersectWithinKmMatches(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(73))
	nonEmpty := 0
	for k := 0; k < 40; k++ {
		hub := randomCap(rng).Center
		n := 2 + rng.Intn(4)
		cs := make([]Constraint, n)
		dists := make([][]float32, n)
		radii := make([]float64, n)
		centers := make([]int, n)
		for i := range cs {
			p := geo.DestinationPoint(hub, rng.Float64()*360, rng.Float64()*3000)
			dists[i], centers[i] = g.DistancesFrom(p), g.CellAt(p)
			radii[i] = rng.Float64() * 6000
			if i == 0 {
				radii[i] = maskTestRadii(rng)[k%11]
			}
			cs[i] = Disk(newCapMasks(g, dists[i], nil), centers[i], radii[i])
		}
		a := g.Intersect(cs)
		b := disksReference(g, dists, radii, centers)
		if !a.Equal(b) {
			t.Fatalf("trial %d (%d disks, radii %v): intersection %d cells, per-cell %d", k, n, radii, a.Count(), b.Count())
		}
		if !a.Empty() {
			nonEmpty++
		}
	}
	t.Logf("%d of 40 intersections non-empty", nonEmpty)
	if nonEmpty < 10 {
		t.Fatalf("only %d of 40 intersections are non-empty: the trials barely exercise the refinement", nonEmpty)
	}
}

// TestMaskFillRingKmMatches: a ring constraint must reproduce the exact
// two-sided predicate (min < dist ≤ max) bit for bit, then its
// center-cell rule, including an unbounded inner edge (−Inf), inverted
// bounds, and rings past the antipode.
func TestMaskFillRingKmMatches(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(74))
	maxSphere := math.Pi * geo.EarthRadiusKm
	for k := 0; k < 40; k++ {
		lm := randomCap(rng).Center
		dist := g.DistancesFrom(lm)
		cm := newCapMasks(g, dist, nil)
		center := g.CellAt(lm)
		bounds := [][2]float64{
			{math.Inf(-1), rng.Float64() * geo.HalfEquatorKm},
			{rng.Float64() * 2000, rng.Float64() * geo.HalfEquatorKm},
			{MaskStepKm, 2 * MaskStepKm},
			{math.Nextafter(MaskStepKm, 0), MaskStepKm},
			{5000, 4000}, // inverted: empty ring
			{maxSphere, maxSphere + 500},
			{math.Inf(-1), maxSphere + 500},
			{0, 1e-9},
		}
		for i, mm := range bounds {
			minEx, maxKm, centerIn := mm[0], mm[1], (k+i)%2 == 0
			a := g.Intersect([]Constraint{Ring(cm, center, minEx, maxKm, centerIn)})
			b := ringReference(g, dist, minEx, maxKm, center, centerIn)
			if !a.Equal(b) {
				t.Fatalf("ring (%v, %v] center in %v: constraint differs from scan (%d vs %d cells)", minEx, maxKm, centerIn, a.Count(), b.Count())
			}
		}
	}
}

// TestMaskLevelSpans: every non-zero word of a level lies inside its
// span, and the span's end words are non-zero.
func TestMaskLevelSpans(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(75))
	for k := 0; k < 10; k++ {
		cm := newCapMasks(g, g.DistancesFrom(randomCap(rng).Center), nil)
		for q := -1; q < maskLevels; q++ {
			lv, sp := cm.level(q)
			for w, x := range lv {
				if inside := w >= sp.lo && w < sp.hi; x != 0 && !inside {
					t.Fatalf("level %d: word %d is non-zero outside span [%d, %d)", q, w, sp.lo, sp.hi)
				}
			}
			if sp.lo < sp.hi && (lv[sp.lo] == 0 || lv[sp.hi-1] == 0) {
				t.Fatalf("level %d: span [%d, %d) is wider than its non-zero words", q, sp.lo, sp.hi)
			}
		}
	}
}

// TestMaskCacheLRUAndStats exercises the bounded cache: hits, misses,
// LRU eviction beyond capacity, and the moved-host key shape (one ID
// at two positions is two entries).
func TestMaskCacheLRUAndStats(t *testing.T) {
	g := New(5)
	c := NewMaskCache(g, 2)

	kA := FieldKey{ID: "a", Lat: 10, Lon: 20}
	kB := FieldKey{ID: "b", Lat: -30, Lon: 40}
	kC := FieldKey{ID: "c", Lat: 50, Lon: -60}

	mA := c.Masks(kA)
	if got := c.Masks(kA); got != mA {
		t.Fatalf("second request for same key returned a different mask family")
	}
	c.Masks(kB)
	c.Masks(kC) // evicts kA (LRU)
	s := c.Stats()
	if s.Entries != 2 || s.Misses != 3 || s.Hits != 1 || s.Evictions != 1 {
		t.Fatalf("stats after LRU churn = %+v, want entries 2, misses 3, hits 1, evictions 1", s)
	}
	if s.Levels <= 0 || s.BytesPerMask <= 0 {
		t.Fatalf("stats missing geometry: %+v", s)
	}

	// Same ID at a new position is a distinct key (moved host): the old
	// entry can never be served for it.
	kB2 := FieldKey{ID: "b", Lat: -31, Lon: 41}
	if c.Masks(kB2) == c.Masks(kB) {
		t.Fatalf("moved host was served the old position's mask family")
	}
}

// TestMaskCacheSharedBuild: concurrent requests for one landmark must
// share a single build and return the same family.
func TestMaskCacheSharedBuild(t *testing.T) {
	g := New(5)
	c := NewMaskCache(g, 4)
	key := FieldKey{ID: "x", Lat: 1, Lon: 2}

	const n = 16
	got := make([]*CapMasks, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Masks(key)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different mask family", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single shared build)", s.Misses)
	}
}

// TestMaskRefinedCounter: ops through the cache must account the
// annulus cells they refined, once per call.
func TestMaskRefinedCounter(t *testing.T) {
	g := New(5)
	c := NewMaskCache(g, 4)
	cm := c.Masks(FieldKey{ID: "x", Lat: 10, Lon: 10})
	g.Intersect([]Constraint{Disk(cm, 0, 3000)})
	s := c.Stats()
	if s.RefinedCells == 0 {
		t.Fatalf("refined-cell counter did not advance")
	}
	if total := uint64(g.NumCells()); s.RefinedCells >= total {
		t.Fatalf("refined %d of %d cells — annulus refinement degenerated to a full scan", s.RefinedCells, total)
	}
}
