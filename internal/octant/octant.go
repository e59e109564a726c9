// Package octant implements "Quasi-Octant" (§3.2): the Octant algorithm
// of Wong et al. (NSDI 2007) without its traceroute-dependent features,
// which cannot be used through commercial proxies.
//
// Per landmark, Quasi-Octant estimates both a maximum and a minimum
// distance for a given delay, using piecewise-linear curves defined by
// the convex hull of the delay-vs-distance calibration scatter. Only
// observations up to the 50th (max curve) and 75th (min curve) delay
// percentiles are trusted; beyond those cutoffs fixed empirical speeds
// take over. Multilateration intersects the resulting rings; because
// ring intersections are frequently empty at world scale, the cells
// covered by the largest number of rings are used (Octant's weighted
// regions reduce to exactly this when all weights are equal).
package octant

import (
	"fmt"
	"math"
	"sort"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// Empirical speeds used beyond the percentile cutoffs, in km per ms of
// one-way time. The fast bound falls back to the physical baseline; the
// slow bound is a conservative "packets at least crawl" estimate.
const (
	fastEmpiricalSpeed = geo.BaselineSpeedKmPerMs
	slowEmpiricalSpeed = 25.0
)

// Curves is the per-landmark delay→distance model.
type Curves struct {
	// maxKnots map one-way delay to maximum plausible distance
	// (increasing, from the lower hull of (distance, delay) scatter).
	maxKnots []mathx.XY
	// minKnots map one-way delay to minimum plausible distance
	// (increasing, from the upper hull).
	minKnots []mathx.XY
	// cutoffs: delays beyond which the hulls are not trusted.
	maxCutoff float64 // 50th percentile of one-way delays
	minCutoff float64 // 75th percentile
}

// FitCurves builds the Quasi-Octant curves from (distance km, RTT ms)
// calibration samples.
func FitCurves(samples []mathx.XY) (*Curves, error) {
	if len(samples) < 4 {
		return nil, mathx.ErrInsufficientData
	}
	// Work in (distance, one-way delay) space.
	pts := make([]mathx.XY, len(samples))
	delays := make([]float64, len(samples))
	for i, s := range samples {
		pts[i] = mathx.XY{X: s.X, Y: geo.OneWayMs(s.Y)}
		delays[i] = pts[i].Y
	}
	c := &Curves{
		maxCutoff: mathx.Quantile(delays, 0.50),
		minCutoff: mathx.Quantile(delays, 0.75),
	}
	// Max-distance curve: the lower hull is the fastest observed travel;
	// inverting it (delay → distance) gives the farthest a packet could
	// plausibly have gone. Keep hull points up to the cutoff.
	lower := mathx.LowerHull(pts)
	c.maxKnots = invertHull(lower, c.maxCutoff)
	// Min-distance curve: the upper hull is the slowest observed travel;
	// inverting gives the least distance a delay that large implies.
	upper := mathx.UpperHull(pts)
	c.minKnots = invertHull(upper, c.minCutoff)
	if len(c.maxKnots) == 0 || len(c.minKnots) == 0 {
		return nil, fmt.Errorf("octant: degenerate hulls from %d samples", len(samples))
	}
	return c, nil
}

// invertHull turns hull points (distance, delay) into increasing
// (delay, distance) knots, dropping knots beyond the delay cutoff and
// enforcing monotonicity in both coordinates by taking the running
// maximum of distance as delay increases.
func invertHull(hull []mathx.XY, cutoff float64) []mathx.XY {
	inv := make([]mathx.XY, 0, len(hull))
	for _, p := range hull {
		inv = append(inv, mathx.XY{X: p.Y, Y: p.X}) // (delay, distance)
	}
	sort.Slice(inv, func(i, j int) bool { return inv[i].X < inv[j].X })
	out := inv[:0]
	maxD := 0.0
	for _, p := range inv {
		if p.X > cutoff && len(out) > 0 {
			break
		}
		if p.Y < maxD {
			continue // keep distance nondecreasing in delay
		}
		maxD = p.Y
		if len(out) > 0 && mathx.ApproxEqual(out[len(out)-1].X, p.X) {
			out[len(out)-1].Y = p.Y
			continue
		}
		out = append(out, p)
	}
	return out
}

// MaxDistanceKm returns the maximum distance estimate for a one-way
// delay: hull interpolation up to the cutoff, then the fast empirical
// speed.
func (c *Curves) MaxDistanceKm(oneWayMs float64) float64 {
	d := evalKnots(c.maxKnots, oneWayMs, c.maxCutoff, fastEmpiricalSpeed)
	if lim := geo.MaxDistanceKm(oneWayMs, geo.BaselineSpeedKmPerMs); d > lim {
		d = lim
	}
	return d
}

// MinDistanceKm returns the minimum distance estimate for a one-way
// delay: below the hull's first knot the minimum is zero, inside it is
// hull interpolation, beyond the cutoff the slow empirical speed
// extends it. This is the assumption — a minimum travel speed — that
// §5 shows is invalid under heavy queueing.
func (c *Curves) MinDistanceKm(oneWayMs float64) float64 {
	if len(c.minKnots) == 0 || oneWayMs <= c.minKnots[0].X {
		return 0
	}
	d := evalKnots(c.minKnots, oneWayMs, c.minCutoff, slowEmpiricalSpeed)
	if d < 0 {
		return 0
	}
	if d > geo.HalfEquatorKm {
		d = geo.HalfEquatorKm
	}
	return d
}

// evalKnots interpolates increasing (delay, distance) knots at t, and
// extends linearly with speedBeyond past the cutoff (or past the last
// knot, whichever comes first).
func evalKnots(knots []mathx.XY, t, cutoff, speedBeyond float64) float64 {
	if len(knots) == 0 {
		return geo.MaxDistanceKm(t, speedBeyond)
	}
	last := knots[len(knots)-1]
	end := math.Min(cutoff, last.X)
	if t >= end {
		base := (&mathx.PiecewiseLinear{Knots: knots}).At(end)
		return base + (t-end)*speedBeyond
	}
	if t <= knots[0].X {
		// Before the first knot, scale the first knot's implied speed.
		if knots[0].X <= 0 {
			return knots[0].Y
		}
		return knots[0].Y * t / knots[0].X
	}
	return (&mathx.PiecewiseLinear{Knots: knots}).At(t)
}

// Calibration holds per-anchor curves and the pooled fallback.
type Calibration struct {
	curves map[netsim.HostID]*Curves
	pooled *Curves
}

// Calibrate fits curves for every anchor plus the pooled fallback.
func Calibrate(cons *atlas.Constellation) (*Calibration, error) {
	cal := &Calibration{curves: make(map[netsim.HostID]*Curves)}
	for _, a := range cons.Anchors() {
		pts := cons.Calibration(a.Host.ID)
		if len(pts) < 4 {
			continue
		}
		cv, err := FitCurves(pts)
		if err != nil {
			return nil, fmt.Errorf("octant: calibrating %s: %w", a.Host.ID, err)
		}
		cal.curves[a.Host.ID] = cv
	}
	pooled, err := FitCurves(cons.Pooled())
	if err != nil {
		return nil, fmt.Errorf("octant: pooled calibration: %w", err)
	}
	cal.pooled = pooled
	return cal, nil
}

// Curves returns the curves for a landmark, or the pooled fallback.
func (c *Calibration) Curves(id netsim.HostID) *Curves {
	if cv, ok := c.curves[id]; ok {
		return cv
	}
	return c.pooled
}

// Octant is the ring-multilateration algorithm.
type Octant struct {
	env *geoloc.Env
	cal *Calibration
}

// New builds a Quasi-Octant instance.
func New(env *geoloc.Env, cal *Calibration) *Octant {
	return &Octant{env: env, cal: cal}
}

// Name implements geoloc.Algorithm.
func (o *Octant) Name() string { return "Quasi-Octant" }

// Calibration exposes the fitted per-landmark curves (used by the
// reference-implementation benchmarks).
func (o *Octant) Calibration() *Calibration { return o.cal }

// Rings returns the per-landmark annulus constraints for a measurement set.
func (o *Octant) Rings(ms []geoloc.Measurement) []geo.Ring {
	ms = geoloc.Collapse(ms)
	rings := make([]geo.Ring, 0, len(ms))
	for _, m := range ms {
		cv := o.cal.Curves(m.LandmarkID)
		t := m.OneWayMs()
		rings = append(rings, geo.Ring{
			Center: m.Landmark,
			MinKm:  cv.MinDistanceKm(t),
			MaxKm:  cv.MaxDistanceKm(t),
		})
	}
	return rings
}

// Locate implements geoloc.Algorithm: the cells covered by the largest
// number of ring constraints, restricted to the physical exclusions.
// Ring rasterization draws on the Env's shared landmark distance fields.
func (o *Octant) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := o.env.PadKm()
	cs := make([]grid.Constraint, 0, len(ms))
	for _, m := range ms {
		cv := o.cal.Curves(m.LandmarkID)
		t := m.OneWayMs()
		r := geo.Ring{
			Center: m.Landmark,
			MinKm:  cv.MinDistanceKm(t) - pad,
			MaxKm:  cv.MaxDistanceKm(t) + pad,
		}
		if r.MinKm < 0 {
			r.MinKm = 0
		}
		cs = append(cs, o.env.RingConstraint(m.LandmarkID, r))
	}
	best := geoloc.IntersectOrArgmax(o.env.Grid, cs)
	return o.env.ApplyExclusions(best), nil
}

var _ geoloc.Algorithm = (*Octant)(nil)
