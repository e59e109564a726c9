// Package geoloc defines the types shared by all active-geolocation
// algorithms: measurements, the Algorithm interface, and the common
// environment (grid + world map) predictions are produced in, including
// the paper's physical-plausibility exclusions (on land, between 60°S
// and 85°N).
package geoloc

import (
	"cmp"
	"errors"
	"math"
	"slices"

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
// landmark geometry cache shared by algorithm implementations. Build
// one per experiment and reuse it; the mask construction dominates
// setup cost, and the geometry cache amortizes landmark geometry across
// every target and every algorithm that shares the Env.
type Env struct {
	Grid *grid.Grid
	Mask *worldmap.Mask

	// Masks caches each landmark's distance to every cell and its
	// radius-quantized cap-mask family (DESIGN.md §8). All five
	// algorithms draw from it, so a landmark's geometry is computed once
	// per Env, not once per (target, algorithm): every disk and ring
	// constraint, and Spotter's distance lookups, run through it.
	Masks *grid.MaskCache

	// Field is a second name for Masks, the same cache, kept for callers
	// that read its counters under the name of the distance-field cache
	// it replaced (the bench module's grid.field.misses).
	Field *grid.MaskCache
}

// DefaultFieldEntries bounds the geometry cache. The paper-scale
// constellation has ~1050 landmarks (250 anchors + 800 probes); at 1°
// resolution one entry (distances plus masks) is ≈438 KB, so the
// default bound caps the cache near 900 MB in the worst case while
// never evicting in practice (the paper constellation fills ≈460 MB).
const DefaultFieldEntries = 2048

// NewEnv builds an environment at the given grid resolution (degrees).
// It is the only constructor: every Env carries its geometry cache.
func NewEnv(resDeg float64) *Env {
	g := grid.New(resDeg)
	m := grid.NewMaskCache(g, DefaultFieldEntries)
	return &Env{Grid: g, Mask: worldmap.NewMask(g), Masks: m, Field: m}
}

// MasksFor returns the landmark's cached geometry, the input of every
// disk or ring constraint around it (grid.Disk, RingConstraint). Take
// it once per landmark per Locate: each lookup takes the cache's lock.
func (e *Env) MasksFor(id netsim.HostID, landmark geo.Point) *grid.CapMasks {
	return e.Masks.Masks(grid.FieldKey{ID: string(id), Lat: landmark.Lat, Lon: landmark.Lon})
}

// Distances returns the cached distance-from-landmark slice for a
// measurement's landmark (one float32 km per grid cell, in cell order).
func (e *Env) Distances(id netsim.HostID, landmark geo.Point) []float32 {
	return e.MasksFor(id, landmark).Distances()
}

// RingConstraint is the ring as a constraint on the landmark's masks:
// the outer cap minus the inner cap, where the inner cap is shrunk by
// one cell diagonal so boundary cells that may still contain ring area
// are kept, and AddCap's center-cell rule applies to both caps.
func (e *Env) RingConstraint(id netsim.HostID, ring geo.Ring) grid.Constraint {
	// The inner cap is subtracted only when it can be shrunk by one cell
	// diagonal while staying positive; otherwise boundary cells (which
	// may still contain ring area) are kept.
	shrink := math.Inf(-1)
	if ring.MinKm > 0 {
		if s := ring.MinKm - 1.5*grid.KmPerDeg*e.Grid.Resolution(); s > 0 {
			shrink = s
		}
	}
	// The outer cap's AddCap always includes the center cell; when the
	// inner cap is subtracted, its own center-cell rule removes it again.
	return grid.Ring(e.MasksFor(id, ring.Center), e.Grid.CellAt(ring.Center), shrink, ring.MaxKm, math.IsInf(shrink, -1))
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
// Among equal RTTs the first occurrence wins. The result is a new slice
// sorted by landmark ID for determinism; ms itself is never reordered,
// since callers may share it across goroutines. NaN RTTs are outside
// the contract.
func Collapse(ms []Measurement) []Measurement {
	out := slices.Clone(ms)
	// A stable sort keeps equal (landmark, RTT) pairs in input order, so
	// the first of each landmark's run is its earliest minimum.
	slices.SortStableFunc(out, func(a, b Measurement) int {
		return cmp.Or(cmp.Compare(a.LandmarkID, b.LandmarkID), cmp.Compare(a.RTTms, b.RTTms))
	})
	return slices.CompactFunc(out, func(a, b Measurement) bool { return a.LandmarkID == b.LandmarkID })
}

// IntersectOrArgmax multilaterates ring/disk constraints: the strict
// intersection of all constraints when it is non-empty; when noise
// makes that empty (common for ring constraints at world scale, §5),
// the cells covered by the largest consistent subset. Both come from
// grid.Grid.CoverageArgmax: the strict rule lives in the kernel, which
// returns the intersection, at count len(cs), whenever the constraints
// share a cell.
// The strict path keeps successful predictions small — the behaviour
// behind the paper's Figure 9C, where ring-based algorithms produce
// much smaller (and often wrong) regions than CBG.
func IntersectOrArgmax(g *grid.Grid, cs []grid.Constraint) *grid.Region {
	// Octant's weighted regions reduce to the maximum-coverage cells
	// when all weights are equal — but a region where only a minority of
	// constraints agree is no prediction at all, so require a clear
	// majority.
	best, count := g.CoverageArgmax(cs)
	if count*2 < len(cs) {
		return g.NewRegion()
	}
	return best
}
