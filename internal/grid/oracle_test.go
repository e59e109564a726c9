package grid

// Per-cell oracles for the word-wise kernel: the bit-by-bit
// implementations the production paths replaced, kept here so every
// equivalence test and fuzz target compares against one plain loop per
// predicate.

import (
	"math"

	"activegeo/internal/geo"
)

// addWithinKm adds every cell whose precomputed distance is at most
// maxKm, plus centerCell — mirroring AddCap's contract that the cap's
// own cell is always present. dist must be a slice of length NumCells in
// cell order, as produced by Grid.DistancesFrom; maxKm ≤ 0 adds only the
// center cell, like AddCap.
func addWithinKm(r *Region, dist []float32, maxKm float64, centerCell int) {
	r.Add(centerCell)
	if maxKm <= 0 {
		return
	}
	for i, d := range dist {
		if float64(d) <= maxKm {
			r.Add(i)
		}
	}
}

// disksReference is the strict intersection of disks as per-cell
// loops: each disk's addWithinKm region, intersected in turn. No disks
// give an empty region, like Grid.Intersect.
func disksReference(g *Grid, dists [][]float32, maxKm []float64, centers []int) *Region {
	out := g.NewRegion()
	for i, dist := range dists {
		r := g.NewRegion()
		addWithinKm(r, dist, maxKm[i], centers[i])
		if i == 0 {
			out = r
		} else {
			out.IntersectWith(r)
		}
	}
	return out
}

// fillRingReference adds every cell with minExclusiveKm < dist ≤ maxKm.
func fillRingReference(r *Region, dist []float32, minExclusiveKm, maxKm float64) {
	for i, d := range dist {
		dd := float64(d)
		if dd <= maxKm && dd > minExclusiveKm {
			r.Add(i)
		}
	}
}

// ringReference is a ring Constraint as one per-cell loop: the
// two-sided predicate when maxKm > 0, then the center-cell rule.
func ringReference(g *Grid, dist []float32, minExclusiveKm, maxKm float64, center int, centerIn bool) *Region {
	r := g.NewRegion()
	if maxKm > 0 {
		fillRingReference(r, dist, minExclusiveKm, maxKm)
	}
	if centerIn {
		r.Add(center)
	} else {
		r.Remove(center)
	}
	return r
}

// areaKm2Reference sums CellArea over the region's cells one by one.
func areaKm2Reference(r *Region) float64 {
	var area float64
	r.Each(func(i int) { area += r.g.CellArea(i) })
	return area
}

// filterReference walks the region bit by bit with a Remove per
// rejected cell.
func filterReference(r *Region, keep func(center geo.Point) bool) {
	r.Each(func(i int) {
		if !keep(r.g.centers[i]) {
			r.Remove(i)
		}
	})
}

// distanceToPointKmReference scans every cell of the region with a
// haversine distance per cell.
func distanceToPointKmReference(r *Region, p geo.Point) float64 {
	if r.ContainsPoint(p) {
		return 0
	}
	best := math.Inf(1)
	r.Each(func(i int) {
		if d := geo.DistanceKm(r.g.centers[i], p); d < best {
			best = d
		}
	})
	return best
}

// coverageArgmaxReference counts every region's cells one by one in a
// plain int per cell and returns the cells at the maximum count.
func coverageArgmaxReference(g *Grid, regions []*Region) (*Region, int) {
	counts := make([]int, g.NumCells())
	for _, r := range regions {
		r.Each(func(i int) { counts[i]++ })
	}
	maxc := 0
	for _, c := range counts {
		maxc = max(maxc, c)
	}
	out := g.NewRegion()
	if maxc == 0 {
		return out, 0
	}
	for i, c := range counts {
		if c == maxc {
			out.Add(i)
		}
	}
	return out, maxc
}
