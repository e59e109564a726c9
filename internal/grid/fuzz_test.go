package grid

// Native fuzz targets for the word-wise kernel: every constraint op
// must stay byte-identical to its per-cell oracle (oracle_test.go) for
// any center, radius and grid resolution, and the pruned bit-sliced
// CoverageArgmax must return the same region and count as a per-cell
// int count for any set of disk and ring constraints. The seed corpora
// below run in every plain `go test`; `make fuzz-smoke` explores beyond
// them.
//
// NaN radii are outside the kernel's contract (no caller can produce
// one, see the CapMasks method docs), so the targets skip them.

import (
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// finite reports whether every x is neither NaN nor ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// fuzzGrid maps an arbitrary finite fuzz input onto a grid resolution
// in [2°, 30°), coarse enough that one iteration stays sub-millisecond.
func fuzzGrid(res float64) *Grid { return New(2 + math.Mod(math.Abs(res), 28)) }

// fuzzRadii are the seed radii: degenerate (≤ 0, 1e-9), exact step
// multiples and their float neighbours, and past-antipode distances.
func fuzzRadii() []float64 {
	maxSphere := math.Pi * geo.EarthRadiusKm
	return []float64{
		-5, 0, 1e-9,
		MaskStepKm, math.Nextafter(MaskStepKm, 0), math.Nextafter(MaskStepKm, math.Inf(1)),
		3 * MaskStepKm, math.Nextafter(3*MaskStepKm, 0), math.Nextafter(3*MaskStepKm, math.Inf(1)),
		geo.HalfEquatorKm, maxSphere, maxSphere + 100, math.Inf(1),
	}
}

// fuzzCenters are the seed landmarks: both poles, an antimeridian point
// and an antipodal pair.
var fuzzCenters = [][2]float64{
	{90, 0}, {-90, 0}, {89.9, 12}, {0, 179.9}, {0, -180}, {10, 20}, {-10, -160},
}

func FuzzFillWithinKm(f *testing.F) {
	for i, c := range fuzzCenters {
		for _, r := range fuzzRadii() {
			f.Add(c[0], c[1], r, float64(2+i*3))
		}
	}
	f.Fuzz(func(t *testing.T, lat, lon, maxKm, res float64) {
		if !finite(lat, lon, res) || math.IsNaN(maxKm) {
			t.Skip()
		}
		p, g := geo.Point{Lat: lat, Lon: lon}, fuzzGrid(res)
		dist := g.DistancesFrom(p)
		center := g.CellAt(p)
		a := g.Intersect([]Constraint{Disk(newCapMasks(g, dist, nil), center, maxKm)})
		b := g.NewRegion()
		addWithinKm(b, dist, maxKm, center)
		if !a.Equal(b) {
			t.Fatalf("center %v radius %v res %v: disk %d cells, per-cell %d", p, maxKm, g.Resolution(), a.Count(), b.Count())
		}
	})
}

// FuzzIntersectWithinKm drives the strict intersection of disk
// constraints, CBG's multilateration: the fuzzed disk plus one to three
// more, drawn from seed around its center, against the per-cell
// intersection of their addWithinKm regions.
func FuzzIntersectWithinKm(f *testing.F) {
	for i, c := range fuzzCenters {
		for _, r := range fuzzRadii() {
			f.Add(c[0], c[1], r, float64(2+i*3), int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, lat, lon, maxKm, res float64, seed int64) {
		if !finite(lat, lon, res) || math.IsNaN(maxKm) {
			t.Skip()
		}
		p, g := geo.Point{Lat: lat, Lon: lon}, fuzzGrid(res)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		cs := make([]Constraint, n)
		dists := make([][]float32, n)
		radii := make([]float64, n)
		centers := make([]int, n)
		for i := range cs {
			q, r := p, maxKm
			if i > 0 {
				q = geo.DestinationPoint(p, rng.Float64()*360, rng.Float64()*4000)
				r = rng.Float64() * 8000
			}
			dists[i], radii[i], centers[i] = g.DistancesFrom(q), r, g.CellAt(q)
			cs[i] = Disk(newCapMasks(g, dists[i], nil), centers[i], r)
		}
		a := g.Intersect(cs)
		if b := disksReference(g, dists, radii, centers); !a.Equal(b) {
			t.Fatalf("center %v radii %v res %v: intersection %d cells, per-cell %d", p, radii, g.Resolution(), a.Count(), b.Count())
		}
	})
}

func FuzzFillRingKm(f *testing.F) {
	maxSphere := math.Pi * geo.EarthRadiusKm
	bounds := [][2]float64{
		{math.Inf(-1), 2500},
		{300, 600},
		{MaskStepKm, 2 * MaskStepKm},
		{math.Nextafter(MaskStepKm, 0), MaskStepKm},
		{MaskStepKm, math.Nextafter(MaskStepKm, math.Inf(1))},
		{5000, 4000}, // inverted: empty ring
		{-10, -5},
		{0, 1e-9},
		{maxSphere, maxSphere + 500},
		{math.Inf(-1), maxSphere + 500},
	}
	for i, c := range fuzzCenters {
		for _, b := range bounds {
			f.Add(c[0], c[1], b[0], b[1], float64(2+i*3))
		}
	}
	f.Fuzz(func(t *testing.T, lat, lon, minExclusiveKm, maxKm, res float64) {
		if !finite(lat, lon, res) || math.IsNaN(minExclusiveKm) || math.IsNaN(maxKm) {
			t.Skip()
		}
		p, g := geo.Point{Lat: lat, Lon: lon}, fuzzGrid(res)
		dist := g.DistancesFrom(p)
		// Env.RingConstraint keeps the center cell exactly when the ring
		// has no inner bound.
		center, centerIn := g.CellAt(p), math.IsInf(minExclusiveKm, -1)
		c := Ring(newCapMasks(g, dist, nil), center, minExclusiveKm, maxKm, centerIn)
		want := ringReference(g, dist, minExclusiveKm, maxKm, center, centerIn)
		if got := g.Intersect([]Constraint{c}); !got.Equal(want) {
			t.Fatalf("center %v ring (%v, %v] res %v: constraint %d cells, per-cell %d", p, minExclusiveKm, maxKm, g.Resolution(), got.Count(), want.Count())
		}
		best, n := g.CoverageArgmax([]Constraint{c})
		if wantN := min(want.Count(), 1); n != wantN || !best.Equal(want) {
			t.Fatalf("center %v ring (%v, %v] res %v: argmax count %d with %d cells, want %d with %d", p, minExclusiveKm, maxKm, g.Resolution(), n, best.Count(), wantN, want.Count())
		}
		if got := c.Intersects(g.FullRegion()); got == want.Empty() {
			t.Fatalf("center %v ring (%v, %v] res %v: Intersects(full) = %v with %d cells", p, minExclusiveKm, maxKm, g.Resolution(), got, want.Count())
		}
	})
}

// Constraint shapes for FuzzCoverageArgmax.
const (
	shapeRandom    = iota // random disks and rings, some sharing masks
	shapeEmpty            // rings with no cells at all
	shapeIdentical        // k copies of one random constraint
	shapeFull             // disks past the antipode
	shapeDisjoint         // small disks at well-separated centers
	shapeSubLevel         // rings below the first mask level, center removed: max L = 0
	shapePoint            // disks of radius ≤ 0: the center cell alone
	shapeOffCenter        // disks too small to reach their own cell's center
	shapeOpenRing         // rings with a −Inf lower bound
	numShapes
)

// coverageCase is a fuzz case's constraints with their per-cell oracle
// regions.
type coverageCase struct {
	g       *Grid
	cs      []Constraint
	regions []*Region
}

// add appends the ring (a disk when minExclusiveKm is −Inf and the
// center is kept) around p, on cm's masks when cm is not nil.
func (cc *coverageCase) add(cm *CapMasks, p geo.Point, minExclusiveKm, maxKm float64, centerIn bool) *CapMasks {
	g := cc.g
	dist := g.DistancesFrom(p)
	if cm == nil {
		cm = newCapMasks(g, dist, nil)
	}
	center := g.CellAt(p)
	if math.IsInf(minExclusiveKm, -1) && centerIn {
		r := g.NewRegion()
		addWithinKm(r, dist, maxKm, center)
		cc.cs = append(cc.cs, Disk(cm, center, maxKm))
		cc.regions = append(cc.regions, r)
		return cm
	}
	cc.cs = append(cc.cs, Ring(cm, center, minExclusiveKm, maxKm, centerIn))
	cc.regions = append(cc.regions, ringReference(g, dist, minExclusiveKm, maxKm, center, centerIn))
	return cm
}

// near returns a point within about 300 km of p.
func near(p geo.Point, rng *rand.Rand) geo.Point {
	return geo.Point{Lat: math.Max(-89, math.Min(89, p.Lat+rng.Float64()*5-2.5)), Lon: p.Lon + rng.Float64()*5 - 2.5}
}

// coverageConstraints builds k constraints of the given shape on g.
func coverageConstraints(g *Grid, k int, shape int, rng *rand.Rand) *coverageCase {
	cc := &coverageCase{g: g}
	hub := randomCap(rng).Center
	maxSphere := math.Pi * geo.EarthRadiusKm
	var prev *CapMasks
	var prevP geo.Point
	for j := 0; j < k; j++ {
		switch shape {
		case shapeRandom:
			// Every third constraint reuses the previous landmark's
			// masks at a new radius, as CBG++'s baseline and bestline
			// disks do.
			p := randomCap(rng).Center
			var cm *CapMasks
			if j%3 == 2 {
				p, cm = prevP, prev
			}
			prevP = p
			maxKm := rng.Float64() * geo.HalfEquatorKm
			if rng.Intn(2) == 0 {
				prev = cc.add(cm, p, math.Inf(-1), maxKm, true)
			} else {
				prev = cc.add(cm, p, rng.Float64()*maxKm-500, maxKm, rng.Intn(2) == 0)
			}
		case shapeEmpty:
			cc.add(nil, randomCap(rng).Center, 100, []float64{-5, 0}[j%2], false)
		case shapeIdentical:
			if j == 0 {
				prev = cc.add(nil, hub, rng.Float64()*3000, 3000+rng.Float64()*8000, false)
				continue
			}
			cc.cs = append(cc.cs, cc.cs[0])
			cc.regions = append(cc.regions, cc.regions[0])
		case shapeFull:
			cc.add(nil, randomCap(rng).Center, math.Inf(-1), maxSphere+100, true)
		case shapeDisjoint:
			// A Fibonacci lattice keeps the centers ≳2,500 km apart for
			// k ≤ 70, so 300 km caps only touch on the coarsest grids.
			lat := math.Asin(1-2*(float64(j)+0.5)/float64(k)) * 180 / math.Pi
			lon := math.Mod(float64(j)*137.508, 360) - 180
			cc.add(nil, geo.Point{Lat: lat, Lon: lon}, math.Inf(-1), 300, true)
		case shapeSubLevel:
			cc.add(nil, near(hub, rng), math.Inf(-1), rng.Float64()*MaskStepKm, false)
		case shapePoint:
			cc.add(nil, near(hub, rng), math.Inf(-1), []float64{-5, 0}[j%2], true)
		case shapeOffCenter:
			// A radius far below the cell size: the landmark's own cell
			// center is outside its disk unless it sits almost on it.
			cc.add(nil, near(hub, rng), math.Inf(-1), 1+rng.Float64()*20, true)
		case shapeOpenRing:
			cc.add(nil, near(hub, rng), math.Inf(-1), rng.Float64()*4000, j%2 == 0)
		}
	}
	return cc
}

// coverageSeed is one FuzzCoverageArgmax input.
type coverageSeed struct {
	k, shape uint8
	res      float64
	seed     int64
}

// coverageSeeds is FuzzCoverageArgmax's seed corpus.
func coverageSeeds() []coverageSeed {
	var seeds []coverageSeed
	// k = 0 and 1; the plane count steps between 2^p−1 and 2^p.
	ks := []uint8{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64}
	// fuzzGrid(0) is the 2° grid, whose 10,312 cells end in a partial
	// word; fuzzGrid(27) is the 29° grid, whose 50 cells fill less than
	// one word.
	for i, k := range ks {
		for shape := range shapeSubLevel {
			seeds = append(seeds, coverageSeed{k, uint8(shape), []float64{0, 27}[i%2], int64(i)})
		}
	}
	for shape := shapeSubLevel; shape < numShapes; shape++ {
		for i, k := range []uint8{1, 3, 4, 9, 33} {
			seeds = append(seeds, coverageSeed{k, uint8(shape), []float64{0, 27}[i%2], int64(100 + i)})
		}
	}
	return seeds
}

// checkCoverageArgmax holds CoverageArgmax to the per-cell oracle and
// to its strict rule: the count is len(cs) exactly when the constraints
// share a cell. It reports whether they did.
func checkCoverageArgmax(t *testing.T, s coverageSeed) (strict bool) {
	g := fuzzGrid(s.res)
	cc := coverageConstraints(g, int(s.k)%70, int(s.shape)%numShapes, rand.New(rand.NewSource(s.seed)))
	got, gotN := g.CoverageArgmax(cc.cs)
	want, wantN := coverageArgmaxReference(g, cc.regions)
	if gotN != wantN || !got.Equal(want) {
		t.Fatalf("k %d shape %d res %v: count %d with %d cells, per-cell %d with %d cells",
			len(cc.cs), s.shape%numShapes, g.Resolution(), gotN, got.Count(), wantN, want.Count())
	}
	strict = !g.Intersect(cc.cs).Empty()
	if full := len(cc.cs) > 0 && gotN == len(cc.cs); full != strict {
		t.Fatalf("k %d shape %d res %v: count %d, but Intersect non-empty is %v",
			len(cc.cs), s.shape%numShapes, g.Resolution(), gotN, strict)
	}
	return strict
}

func FuzzCoverageArgmax(f *testing.F) {
	for _, s := range coverageSeeds() {
		f.Add(s.k, s.shape, s.res, s.seed)
	}
	f.Fuzz(func(t *testing.T, k, shape uint8, res float64, seed int64) {
		if !finite(res) {
			t.Skip()
		}
		checkCoverageArgmax(t, coverageSeed{k, shape, res, seed})
	})
}

// TestCoverageArgmaxSeedsHitBothBranches: FuzzCoverageArgmax's seed
// corpus reaches both CoverageArgmax branches, the strict intersection
// (every identical and full seed does) and the pruned count.
func TestCoverageArgmaxSeedsHitBothBranches(t *testing.T) {
	var strict, counted int
	for _, s := range coverageSeeds() {
		if checkCoverageArgmax(t, s) {
			strict++
			continue
		}
		if s.k > 0 && (s.shape == shapeIdentical || s.shape == shapeFull) {
			t.Errorf("seed %+v: %d identical or full constraints share no cell", s, s.k)
		}
		counted++
	}
	t.Logf("%d seeds take the strict branch, %d the count", strict, counted)
	if strict == 0 || counted == 0 {
		t.Errorf("seeds take the strict branch %d times and the count %d times, want both", strict, counted)
	}
}
