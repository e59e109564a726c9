// Package grid discretizes the Earth's surface into an (approximately)
// equal-area grid of cells and represents geolocation prediction regions
// as bitsets over those cells.
//
// The grid is built from latitude bands of fixed angular height; each band
// is divided into a number of columns proportional to cos(latitude), so
// every cell covers roughly the same surface area. All multilateration in
// this library — disks (CBG), rings (Octant), posterior mass (Spotter) —
// reduces to selecting subsets of these cells.
package grid

import (
	"fmt"
	"math"
	"math/bits"

	"activegeo/internal/geo"
)

// KmPerDeg is the meridian arc length of one degree of latitude: the
// conversion factor between a north–south distance and the latitude
// span it covers. It is untyped, so products of literals with it fold
// exactly at compile time.
const KmPerDeg = 111.195

// Grid is an immutable equal-area discretization of the sphere. Build one
// with New and share it; Regions are only comparable within one Grid.
//
// Alongside the cell centers the grid precomputes the geometry kernel:
// a unit vector per cell center and a cell→band table. Distance tests
// against a cell then cost one dot product (cap membership is a single
// comparison against a precomputed cos(radius)), and band lookups —
// which sit inside CellArea, and therefore inside AreaKm2, Centroid and
// Spotter's mass weighting — are O(1) instead of a binary search.
type Grid struct {
	resDeg     float64   // band height in degrees
	bands      int       // number of latitude bands
	cols       []int     // columns per band
	bandOffset []int     // first cell index of each band
	total      int       // total number of cells
	cellArea   []float64 // area of one cell in each band, km²
	centers    []geo.Point
	units      []geo.Vec3 // unit vector of each cell center
	bandIdx    []int32    // band of each cell
}

// New builds a grid with latitude bands resDeg degrees tall. A resolution
// of 1.0° yields ≈41k cells (cells ≈111 km tall); 0.5° yields ≈165k.
func New(resDeg float64) *Grid {
	if resDeg <= 0 || resDeg > 30 {
		panic(fmt.Sprintf("grid: invalid resolution %v", resDeg))
	}
	bands := int(math.Ceil(180 / resDeg))
	g := &Grid{
		resDeg:     resDeg,
		bands:      bands,
		cols:       make([]int, bands),
		bandOffset: make([]int, bands),
		cellArea:   make([]float64, bands),
	}
	offset := 0
	for b := 0; b < bands; b++ {
		latLo := -90 + float64(b)*resDeg
		latHi := math.Min(latLo+resDeg, 90)
		latMid := (latLo + latHi) / 2
		n := int(math.Max(1, math.Round(360*math.Cos(latMid*math.Pi/180)/resDeg)))
		g.cols[b] = n
		g.bandOffset[b] = offset
		offset += n
		// Band area: 2πR² |sin(hi) - sin(lo)|, divided among n cells.
		bandArea := 2 * math.Pi * geo.EarthRadiusKm * geo.EarthRadiusKm *
			math.Abs(math.Sin(latHi*math.Pi/180)-math.Sin(latLo*math.Pi/180))
		g.cellArea[b] = bandArea / float64(n)
	}
	g.total = offset
	g.centers = make([]geo.Point, g.total)
	g.units = make([]geo.Vec3, g.total)
	g.bandIdx = make([]int32, g.total)
	for b := 0; b < bands; b++ {
		latLo := -90 + float64(b)*resDeg
		latHi := math.Min(latLo+resDeg, 90)
		latMid := (latLo + latHi) / 2
		n := g.cols[b]
		for c := 0; c < n; c++ {
			i := g.bandOffset[b] + c
			lon := -180 + (float64(c)+0.5)*360/float64(n)
			g.centers[i] = geo.Point{Lat: latMid, Lon: lon}
			g.units[i] = geo.UnitVec(g.centers[i])
			g.bandIdx[i] = int32(b)
		}
	}
	return g
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.total }

// Resolution returns the band height in degrees.
func (g *Grid) Resolution() float64 { return g.resDeg }

// Center returns the center point of cell i.
func (g *Grid) Center(i int) geo.Point { return g.centers[i] }

// UnitVec returns the precomputed unit vector of cell i's center.
func (g *Grid) UnitVec(i int) geo.Vec3 { return g.units[i] }

// DistancesFrom materializes the great-circle distance from p to every
// cell center, in cell order, as float32 kilometers. This is the raw
// material of the DistanceField cache: one pass of dot products + acos
// over the precomputed unit vectors.
func (g *Grid) DistancesFrom(p geo.Point) []float32 {
	u := geo.UnitVec(p)
	out := make([]float32, g.total)
	for i, v := range g.units {
		out[i] = float32(geo.DistanceKmFromDot(u.Dot(v)))
	}
	return out
}

// CellArea returns the surface area of cell i in km².
func (g *Grid) CellArea(i int) float64 { return g.cellArea[g.bandOf(i)] }

// CellAt returns the index of the cell containing p.
func (g *Grid) CellAt(p geo.Point) int {
	p = p.Normalize()
	b := int((p.Lat + 90) / g.resDeg)
	if b >= g.bands {
		b = g.bands - 1
	}
	if b < 0 {
		b = 0
	}
	n := g.cols[b]
	c := int((p.Lon + 180) / 360 * float64(n))
	if c >= n {
		c = n - 1
	}
	if c < 0 {
		c = 0
	}
	return g.bandOffset[b] + c
}

func (g *Grid) bandOf(i int) int { return int(g.bandIdx[i]) }

// bandLatRange returns the latitude span [lo, hi] of band b.
func (g *Grid) bandLatRange(b int) (lo, hi float64) {
	lo = -90 + float64(b)*g.resDeg
	return lo, math.Min(lo+g.resDeg, 90)
}

// Region is a set of grid cells. The zero value is unusable; create
// regions through Grid methods. Regions are mutable; use Clone before
// destructive set operations when the original is still needed.
type Region struct {
	g    *Grid
	bits []uint64
}

// NewRegion returns an empty region on g.
func (g *Grid) NewRegion() *Region {
	return &Region{g: g, bits: make([]uint64, (g.total+63)/64)}
}

// FullRegion returns a region covering every cell.
func (g *Grid) FullRegion() *Region {
	r := g.NewRegion()
	for i := range r.bits {
		r.bits[i] = ^uint64(0)
	}
	// Clear the bits beyond the last valid cell.
	if extra := len(r.bits)*64 - g.total; extra > 0 {
		r.bits[len(r.bits)-1] >>= uint(extra)
	}
	return r
}

// Grid returns the grid this region belongs to.
func (r *Region) Grid() *Grid { return r.g }

// Clone returns a deep copy.
func (r *Region) Clone() *Region {
	b := make([]uint64, len(r.bits))
	copy(b, r.bits)
	return &Region{g: r.g, bits: b}
}

// Add inserts cell i.
func (r *Region) Add(i int) { r.bits[i/64] |= 1 << uint(i%64) }

// Remove deletes cell i.
func (r *Region) Remove(i int) { r.bits[i/64] &^= 1 << uint(i%64) }

// Contains reports whether cell i is in the region.
func (r *Region) Contains(i int) bool { return r.bits[i/64]&(1<<uint(i%64)) != 0 }

// ContainsPoint reports whether the cell containing p is in the region.
func (r *Region) ContainsPoint(p geo.Point) bool { return r.Contains(r.g.CellAt(p)) }

// Count returns the number of cells in the region.
func (r *Region) Count() int {
	n := 0
	for _, w := range r.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the region has no cells.
func (r *Region) Empty() bool {
	for _, w := range r.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// AreaKm2 returns the total surface area of the region. Cells within one
// latitude band all share one area, so the sum reduces to a word-masked
// popcount per band times that band's cell area — no per-cell iteration.
// The streaming audit recomputes region areas per verdict delta, which is
// what pushed this off the bit-by-bit path.
func (r *Region) AreaKm2() float64 {
	g := r.g
	var area float64
	for b := 0; b < g.bands; b++ {
		lo := g.bandOffset[b]
		if n := r.countInRange(lo, lo+g.cols[b]); n > 0 {
			area += float64(n) * g.cellArea[b]
		}
	}
	return area
}

// countInRange returns the number of region cells in [lo, hi) using
// word-masked popcounts.
func (r *Region) countInRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > r.g.total {
		hi = r.g.total
	}
	if lo >= hi {
		return 0
	}
	wLo, wHi := lo/64, (hi-1)/64
	n := 0
	for w := wLo; w <= wHi; w++ {
		word := r.bits[w]
		if word == 0 {
			continue
		}
		if w == wLo && lo%64 != 0 {
			word &= ^uint64(0) << uint(lo%64)
		}
		if w == wHi && hi%64 != 0 {
			word &= ^uint64(0) >> uint(64-hi%64)
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// Each calls fn for every cell index in the region, in increasing order.
func (r *Region) Each(fn func(i int)) {
	for w, word := range r.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &= word - 1
		}
	}
}

// IntersectWith removes every cell of r not present in other.
func (r *Region) IntersectWith(other *Region) {
	for i := range r.bits {
		r.bits[i] &= other.bits[i]
	}
}

// UnionWith adds every cell of other to r.
func (r *Region) UnionWith(other *Region) {
	for i := range r.bits {
		r.bits[i] |= other.bits[i]
	}
}

// SubtractWith removes every cell of other from r.
func (r *Region) SubtractWith(other *Region) {
	for i := range r.bits {
		r.bits[i] &^= other.bits[i]
	}
}

// Filter removes every cell for which keep returns false. Like
// CapMasks.IntersectWithinKm, the walk is word-wise: zero words are
// skipped and each surviving word's keep-mask is built locally and
// stored once, instead of a Remove per rejected cell. The predicate is
// applied to exactly the same cells in the same order as a bit-by-bit
// walk, so the resulting bits are identical.
func (r *Region) Filter(keep func(center geo.Point) bool) {
	for w, word := range r.bits {
		if word == 0 {
			continue
		}
		out := word
		base := w * 64
		for t := word; t != 0; t &= t - 1 {
			b := bits.TrailingZeros64(t)
			if !keep(r.g.centers[base+b]) {
				out &^= 1 << uint(b)
			}
		}
		r.bits[w] = out
	}
}

// Equal reports whether r and other contain exactly the same cells.
func (r *Region) Equal(other *Region) bool {
	if len(r.bits) != len(other.bits) {
		return false
	}
	for i, w := range r.bits {
		if w != other.bits[i] {
			return false
		}
	}
	return true
}

// IntersectsRegion reports whether r and other share at least one cell.
func (r *Region) IntersectsRegion(other *Region) bool {
	for i := range r.bits {
		if r.bits[i]&other.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Centroid returns the area-weighted centroid of the region's cell
// centers, computed in 3-D Cartesian space to behave across the
// antimeridian. For an empty region it returns false.
func (r *Region) Centroid() (geo.Point, bool) {
	var x, y, z, wsum float64
	r.Each(func(i int) {
		u := r.g.units[i]
		w := r.g.CellArea(i)
		x += w * u.X
		y += w * u.Y
		z += w * u.Z
		wsum += w
	})
	//lint:allow floatexact division-by-zero guard: wsum is a sum of non-negative areas, zero iff the region is empty
	if wsum == 0 {
		return geo.Point{}, false
	}
	x, y, z = x/wsum, y/wsum, z/wsum
	norm := math.Sqrt(x*x + y*y + z*z)
	//lint:allow floatexact division-by-zero guard: norm is exactly zero only for perfectly antipodally symmetric regions
	if norm == 0 {
		return geo.Point{}, false
	}
	lat := math.Asin(z/norm) * 180 / math.Pi
	lon := math.Atan2(y, x) * 180 / math.Pi
	return geo.Point{Lat: lat, Lon: lon}, true
}

// DistanceToPointKm returns the great-circle distance from the nearest
// cell center of the region to p (0 if the region contains p's cell).
// Returns +Inf for an empty region.
//
// Instead of scanning every cell of the region, it expands outward from
// p's latitude band: all centers in band b sit exactly at the band's
// middle latitude, so the distance from p to any of them is at least the
// latitude separation, and the search stops as soon as both directions'
// bands are provably farther than the best cell found. For the small,
// compact regions claim assessment produces, this touches a handful of
// bands.
func (r *Region) DistanceToPointKm(p geo.Point) float64 {
	if r.ContainsPoint(p) {
		return 0
	}
	g := r.g
	pn := p.Normalize()
	u := geo.UnitVec(pn)
	pb := int((pn.Lat + 90) / g.resDeg)
	if pb >= g.bands {
		pb = g.bands - 1
	}
	if pb < 0 {
		pb = 0
	}
	bestDot := math.Inf(-1)
	bestKm := math.Inf(1)
	scanBand := func(b int) {
		off := g.bandOffset[b]
		r.eachInRange(off, off+g.cols[b], func(i int) {
			if d := u.Dot(g.units[i]); d > bestDot {
				bestDot = d
			}
		})
		if !math.IsInf(bestDot, -1) {
			bestKm = geo.DistanceKmFromDot(bestDot)
		}
	}
	// Minimum possible distance from p to any center in band b: the pure
	// latitude separation (a great circle between points Δφ apart spans at
	// least Δφ). The epsilon guards against acos-vs-multiplication rounding
	// disagreements at the prune boundary.
	sepKm := func(b int) float64 {
		lo, hi := g.bandLatRange(b)
		return math.Abs(pn.Lat-(lo+hi)/2) * (math.Pi / 180) * geo.EarthRadiusKm
	}
	lo, hi := pb, pb+1
	loDone, hiDone := false, false
	for !loDone || !hiDone {
		if !loDone {
			if lo < 0 || sepKm(lo) > bestKm+1e-6 {
				loDone = true
			} else {
				scanBand(lo)
				lo--
			}
		}
		if !hiDone {
			if hi >= g.bands || sepKm(hi) > bestKm+1e-6 {
				hiDone = true
			} else {
				scanBand(hi)
				hi++
			}
		}
	}
	return bestKm
}

// eachInRange calls fn for every cell index of the region in [lo, hi),
// in increasing order.
func (r *Region) eachInRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > r.g.total {
		hi = r.g.total
	}
	if lo >= hi {
		return
	}
	wLo, wHi := lo/64, (hi-1)/64
	for w := wLo; w <= wHi; w++ {
		word := r.bits[w]
		if word == 0 {
			continue
		}
		if w == wLo && lo%64 != 0 {
			word &= ^uint64(0) << uint(lo%64)
		}
		if w == wHi && hi%64 != 0 {
			word &= ^uint64(0) >> uint(64-hi%64)
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &= word - 1
		}
	}
}

// AddCap adds every cell whose center lies within the cap, plus the cell
// containing the cap's center (so a cap smaller than a cell still maps to
// a nonempty region). It uses a latitude-band prefilter so the cost is
// proportional to the cap size, and the kernel's dot-product membership
// test so no trigonometry runs per candidate cell.
func (r *Region) AddCap(c geo.Cap) {
	u := geo.UnitVec(c.Center)
	cosR := geo.CosForKm(c.RadiusKm)
	r.addCap(c, func(i int) bool { return u.Dot(r.g.units[i]) >= cosR })
}

// AddCapReference is the pre-kernel AddCap: identical candidate
// enumeration, but membership tested with a haversine distance per cell.
// It is the one reference predicate outside test code, because it shares
// addCap's candidate enumeration: the pre-kernel implementations in
// internal/refimpl build on it as the oracle and the "before" side of
// the root BenchmarkLocateReference. New code should use AddCap.
func (r *Region) AddCapReference(c geo.Cap) {
	r.addCap(c, func(i int) bool { return c.Contains(r.g.centers[i]) })
}

// addCap enumerates the candidate cells of a cap (latitude-band and
// longitude-window prefilters) and adds those passing the membership
// test. The predicate is the only thing the kernel path and the
// reference path disagree on.
func (r *Region) addCap(c geo.Cap, contains func(i int) bool) {
	g := r.g
	r.Add(g.CellAt(c.Center))
	if c.RadiusKm <= 0 {
		return
	}
	latHalf := c.RadiusKm / KmPerDeg
	bLo := int((c.Center.Lat - latHalf + 90) / g.resDeg)
	bHi := int((c.Center.Lat + latHalf + 90) / g.resDeg)
	if bLo < 0 {
		bLo = 0
	}
	if bHi >= g.bands {
		bHi = g.bands - 1
	}
	// Longitude prefilter: for a spherical cap that does not reach a
	// pole, every cap point satisfies |lon − centerLon| ≤
	// asin(sin(angularRadius)/cos(centerLat)). Caps that reach a pole or
	// exceed a quarter sphere span all longitudes.
	lonHalf := 180.0
	ar := c.RadiusKm / geo.EarthRadiusKm
	if ar < math.Pi/2 {
		sinAr := math.Sin(ar)
		cosLatC := math.Cos(c.Center.Lat * math.Pi / 180)
		if sinAr < cosLatC {
			lonHalf = math.Asin(sinAr/cosLatC) * 180 / math.Pi
		}
	}
	for b := bLo; b <= bHi; b++ {
		n := g.cols[b]
		off := g.bandOffset[b]
		span := lonHalf + 360/float64(n) // pad by one cell width
		if span >= 180 {
			for cc := 0; cc < n; cc++ {
				if contains(off + cc) {
					r.Add(off + cc)
				}
			}
			continue
		}
		cLo := int(math.Floor((c.Center.Lon - span + 180) / 360 * float64(n)))
		cHi := int(math.Ceil((c.Center.Lon + span + 180) / 360 * float64(n)))
		if cHi-cLo >= n {
			cLo, cHi = 0, n-1
		}
		for k := cLo; k <= cHi; k++ {
			cc := ((k % n) + n) % n
			if contains(off + cc) {
				r.Add(off + cc)
			}
		}
	}
}

// CapRegion returns a fresh region covering the cap.
func (g *Grid) CapRegion(c geo.Cap) *Region {
	r := g.NewRegion()
	r.AddCap(c)
	return r
}

// String summarizes the region.
func (r *Region) String() string {
	cnt := r.Count()
	if cnt == 0 {
		return "region{empty}"
	}
	c, _ := r.Centroid()
	return fmt.Sprintf("region{%d cells, %.0f km², centroid %v}", cnt, r.AreaKm2(), c)
}
