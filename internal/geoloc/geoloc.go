// Package geoloc defines the types shared by all active-geolocation
// algorithms: measurements, the Algorithm interface, and the common
// environment (grid + world map) predictions are produced in, including
// the paper's physical-plausibility exclusions (on land, between 60°S
// and 85°N).
package geoloc

import (
	"errors"
	"math"
	"sort"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// Measurement is one round-trip-time observation of the target from a
// landmark in a known location. RTTms must already be corrected for
// measurement artifacts (proxy indirection, double round trips); see
// package measure.
type Measurement struct {
	LandmarkID netsim.HostID
	Landmark   geo.Point
	RTTms      float64
}

// OneWayMs returns the one-way travel time of the measurement.
func (m Measurement) OneWayMs() float64 { return geo.OneWayMs(m.RTTms) }

// Algorithm estimates a target's location from measurements.
type Algorithm interface {
	// Name identifies the algorithm ("CBG", "Quasi-Octant", …).
	Name() string
	// Locate returns the prediction region. An empty region means the
	// algorithm failed to produce any location consistent with the
	// measurements.
	Locate(ms []Measurement) (*grid.Region, error)
}

// ErrNoMeasurements is returned when Locate is called with no usable
// measurements.
var ErrNoMeasurements = errors.New("geoloc: no measurements")

// Env bundles the discretization grid, the world-map masks, and the
// landmark distance-field cache shared by algorithm implementations.
// Build one per experiment and reuse it; the mask construction dominates
// setup cost, and the distance cache amortizes landmark geometry across
// every target and every algorithm that shares the Env.
type Env struct {
	Grid *grid.Grid
	Mask *worldmap.Mask

	// Field caches the distance-to-every-cell slice of each landmark.
	// All five algorithms draw from it, so a landmark's great-circle
	// geometry is computed once per Env, not once per (target,
	// algorithm). Shared slices are immutable.
	Field *grid.DistanceField

	// Masks caches each landmark's radius-quantized cap-mask family,
	// built from Field, so cap/ring region construction is word-wise
	// with the exact distance predicate confined to the quantization
	// annulus (DESIGN.md §8). Every cap, ring and disk intersection
	// runs through it.
	Masks *grid.MaskCache
}

// DefaultFieldEntries bounds the distance cache. The paper-scale
// constellation has ~1050 landmarks (250 anchors + 800 probes); at 1°
// resolution one entry is ≈165 KB, so the default bound caps the cache
// near 340 MB in the worst case while never evicting in practice.
const DefaultFieldEntries = 2048

// NewEnv builds an environment at the given grid resolution (degrees).
// It is the only constructor: every Env carries a Field and Masks.
func NewEnv(resDeg float64) *Env {
	g := grid.New(resDeg)
	f := grid.NewDistanceField(g, DefaultFieldEntries)
	return &Env{
		Grid:  g,
		Mask:  worldmap.NewMask(g),
		Field: f,
		Masks: grid.NewMaskCache(f, DefaultFieldEntries),
	}
}

// masksFor returns the landmark's quantized mask family.
func (e *Env) masksFor(id netsim.HostID, landmark geo.Point) *grid.CapMasks {
	return e.Masks.Masks(grid.FieldKey{ID: string(id), Lat: landmark.Lat, Lon: landmark.Lon})
}

// Distances returns the cached distance-from-landmark slice for a
// measurement's landmark (one float32 km per grid cell, in cell order).
func (e *Env) Distances(id netsim.HostID, landmark geo.Point) []float32 {
	return e.Field.Distances(grid.FieldKey{ID: string(id), Lat: landmark.Lat, Lon: landmark.Lon})
}

// CapRegionFor builds the cap's region from the landmark's cached
// distance field, with AddCap's semantics (the cap center's cell is
// always included): every cell within RadiusKm, filled word-wise
// against the bracketing quantized masks.
func (e *Env) CapRegionFor(id netsim.HostID, c geo.Cap) *grid.Region {
	r := e.Grid.NewRegion()
	if c.RadiusKm > 0 {
		e.masksFor(id, c.Center).FillWithinKm(r, c.RadiusKm)
	}
	r.Add(e.Grid.CellAt(c.Center))
	return r
}

// IntersectWithinFor prunes r to the cells within maxKm of the
// landmark, word-wise against its quantized masks. CBG's
// per-measurement disk intersection runs through here.
func (e *Env) IntersectWithinFor(r *grid.Region, id netsim.HostID, landmark geo.Point, maxKm float64) {
	e.masksFor(id, landmark).IntersectWithinKm(r, maxKm)
}

// InvalidateLandmark evicts the host's entries from both the distance
// field and the mask cache, returning how many of each were dropped.
// Call it when the fleet churns (a landmark decommissioned, or a host
// re-provisioned at a new position); the host+position keys already
// prevent stale entries from being *served* for a moved host, and this
// reclaims their memory immediately.
func (e *Env) InvalidateLandmark(id netsim.HostID) (fields, masks int) {
	return e.Field.Invalidate(string(id)), e.Masks.Invalidate(string(id))
}

// RingRegionFor builds the ring's region from the landmark's cached
// distance field: the outer cap minus the inner cap, where the inner cap
// is shrunk by one cell diagonal so boundary cells that may still
// contain ring area are kept, and AddCap's center-cell rule applies to
// both caps.
func (e *Env) RingRegionFor(id netsim.HostID, ring geo.Ring) *grid.Region {
	g := e.Grid
	r := g.NewRegion()
	// The inner cap is subtracted only when it can be shrunk by one cell
	// diagonal while staying positive; otherwise boundary cells (which
	// may still contain ring area) are kept.
	shrink := math.Inf(-1)
	if ring.MinKm > 0 {
		if s := ring.MinKm - 1.5*grid.KmPerDeg*g.Resolution(); s > 0 {
			shrink = s
		}
	}
	if ring.MaxKm > 0 {
		// Word-wise: certain ring cells by mask algebra, the exact
		// two-sided predicate only near the two quantization boundaries.
		e.masksFor(id, ring.Center).FillRingKm(r, shrink, ring.MaxKm)
	}
	// The outer cap's AddCap always includes the center cell; when the
	// inner cap is subtracted, its own center-cell rule removes it again.
	cc := g.CellAt(ring.Center)
	if math.IsInf(shrink, -1) {
		r.Add(cc)
	} else {
		r.Remove(cc)
	}
	return r
}

// PadKm is the conservative rasterization margin for this grid: a cell
// should be kept by a disk constraint if any part of the cell could be
// inside the disk, which we approximate by padding the disk radius with
// (slightly more than) half the cell diagonal. Without this, a tight but
// correct disk can drop the very cell containing the target.
func (e *Env) PadKm() float64 {
	return 0.8 * grid.KmPerDeg * e.Grid.Resolution()
}

// ApplyExclusions intersects the region with the land mask (which already
// excludes terrain north of 85°N and south of 60°S). If no land cell
// survives — a prediction entirely at sea — the latitude exclusion alone
// is applied, so the caller still sees where the algorithm pointed.
func (e *Env) ApplyExclusions(r *grid.Region) *grid.Region {
	masked := r.Clone()
	masked.IntersectWith(e.Mask.LandRef())
	if !masked.Empty() {
		return masked
	}
	sea := r.Clone()
	sea.Filter(func(p geo.Point) bool { return p.Lat <= 85 && p.Lat >= -60 })
	return sea
}

// Collapse deduplicates measurements by landmark, keeping the minimum RTT
// for each — the standard treatment, since queueing can only add delay.
// The result is sorted by landmark ID for determinism.
func Collapse(ms []Measurement) []Measurement {
	best := map[netsim.HostID]Measurement{}
	for _, m := range ms {
		if cur, ok := best[m.LandmarkID]; !ok || m.RTTms < cur.RTTms {
			best[m.LandmarkID] = m
		}
	}
	out := make([]Measurement, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LandmarkID < out[j].LandmarkID })
	return out
}

// CoverageArgmax returns the set of grid cells covered by the maximum
// number of the given constraint regions, along with that maximum count.
// It is the discrete analogue of "the largest subset of disks whose
// intersection is nonempty" from CBG++ (§5.1): any cell covered by k
// disks witnesses a k-subset with nonempty intersection, so the cells at
// the maximum count are exactly the intersection of the largest such
// subset(s).
func CoverageArgmax(g *grid.Grid, regions []*grid.Region) (*grid.Region, int) {
	counts := make([]int16, g.NumCells())
	for _, r := range regions {
		r.Each(func(i int) { counts[i]++ })
	}
	var maxc int16
	for _, c := range counts {
		if c > maxc {
			maxc = c
		}
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
	return out, int(maxc)
}

// IntersectOrArgmax multilaterates ring/disk constraint regions: it
// first tries the strict intersection of all constraints; when noise
// makes that empty (common for ring constraints at world scale, §5),
// it falls back to the cells covered by the largest consistent subset.
// The strict path keeps successful predictions small — the behaviour
// behind the paper's Figure 9C, where ring-based algorithms produce
// much smaller (and often wrong) regions than CBG.
func IntersectOrArgmax(g *grid.Grid, regions []*grid.Region) *grid.Region {
	if len(regions) == 0 {
		return g.NewRegion()
	}
	strict := regions[0].Clone()
	for _, r := range regions[1:] {
		strict.IntersectWith(r)
		if strict.Empty() {
			// Octant's weighted regions reduce to the maximum-coverage
			// cells when all weights are equal — but a region where only
			// a minority of constraints agree is no prediction at all,
			// so require a clear majority.
			best, count := CoverageArgmax(g, regions)
			if count*2 < len(regions) {
				return g.NewRegion()
			}
			return best
		}
	}
	return strict
}
