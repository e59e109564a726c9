package grid

// Native fuzz targets for the word-wise kernel: every CapMasks op must
// stay byte-identical to its per-cell oracle (oracle_test.go) for any
// center, radius and grid resolution, and the bit-sliced CoverageArgmax
// must return the same region and count as a per-cell int count for any
// set of regions. The seed corpora below run in every plain `go test`;
// `make fuzz-smoke` explores beyond them.
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
		a, b := g.NewRegion(), g.NewRegion()
		newCapMasks(g, dist, nil).FillWithinKm(a, maxKm)
		fillRingReference(b, dist, math.Inf(-1), maxKm)
		if !a.Equal(b) {
			t.Fatalf("center %v radius %v res %v: mask fill %d cells, per-cell %d", p, maxKm, g.Resolution(), a.Count(), b.Count())
		}
	})
}

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
		dist := g.DistancesFrom(p)
		r := randomRegion(g, rand.New(rand.NewSource(seed)))
		a, b := r.Clone(), r.Clone()
		newCapMasks(g, dist, nil).IntersectWithinKm(a, maxKm)
		intersectWithinKmReference(b, dist, maxKm)
		if !a.Equal(b) {
			t.Fatalf("center %v radius %v res %v: mask intersect %d cells, per-cell %d", p, maxKm, g.Resolution(), a.Count(), b.Count())
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
		a, b := g.NewRegion(), g.NewRegion()
		newCapMasks(g, dist, nil).FillRingKm(a, minExclusiveKm, maxKm)
		fillRingReference(b, dist, minExclusiveKm, maxKm)
		if !a.Equal(b) {
			t.Fatalf("center %v ring (%v, %v] res %v: mask fill %d cells, per-cell %d", p, minExclusiveKm, maxKm, g.Resolution(), a.Count(), b.Count())
		}
	})
}

// Region shapes for FuzzCoverageArgmax.
const (
	shapeRandom    = iota // independent random regions
	shapeEmpty            // every region empty
	shapeIdentical        // k copies of one random region
	shapeFull             // every region the full grid
	shapeDisjoint         // small caps at well-separated centers
	numShapes
)

// coverageRegions builds k regions of the given shape on g.
func coverageRegions(g *Grid, k int, shape int, rng *rand.Rand) []*Region {
	regions := make([]*Region, k)
	one := randomRegion(g, rng)
	for j := range regions {
		switch shape {
		case shapeRandom:
			regions[j] = randomRegion(g, rng)
		case shapeEmpty:
			regions[j] = g.NewRegion()
		case shapeIdentical:
			regions[j] = one.Clone()
		case shapeFull:
			regions[j] = g.FullRegion()
		case shapeDisjoint:
			// A Fibonacci lattice keeps the centers ≳2,500 km apart for
			// k ≤ 70, so 300 km caps only touch on the coarsest grids.
			lat := math.Asin(1-2*(float64(j)+0.5)/float64(k)) * 180 / math.Pi
			lon := math.Mod(float64(j)*137.508, 360) - 180
			regions[j] = g.CapRegion(geo.Cap{Center: geo.Point{Lat: lat, Lon: lon}, RadiusKm: 300})
		}
	}
	return regions
}

func FuzzCoverageArgmax(f *testing.F) {
	// k = 0 and 1; the plane count steps between 2^p−1 and 2^p.
	ks := []uint8{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64}
	// fuzzGrid(0) is the 2° grid, whose 10,312 cells end in a partial
	// word; fuzzGrid(27) is the 29° grid, whose 50 cells fill less than
	// one word.
	for i, k := range ks {
		for shape := range numShapes {
			f.Add(k, uint8(shape), []float64{0, 27}[i%2], int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, k, shape uint8, res float64, seed int64) {
		if !finite(res) {
			t.Skip()
		}
		g := fuzzGrid(res)
		regions := coverageRegions(g, int(k)%70, int(shape)%numShapes, rand.New(rand.NewSource(seed)))
		got, gotN := g.CoverageArgmax(regions)
		want, wantN := coverageArgmaxReference(g, regions)
		if gotN != wantN || !got.Equal(want) {
			t.Fatalf("k %d shape %d res %v: count %d with %d cells, per-cell %d with %d cells",
				len(regions), shape%numShapes, g.Resolution(), gotN, got.Count(), wantN, want.Count())
		}
	})
}
