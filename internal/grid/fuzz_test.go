package grid

// Native fuzz targets for the word-wise mask kernel: every CapMasks op
// must stay byte-identical to its per-cell oracle (oracle_test.go) for
// any center, radius and grid resolution. The seed corpus below runs in
// every plain `go test`; `make fuzz-smoke` explores beyond it.
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
