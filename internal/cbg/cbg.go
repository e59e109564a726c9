// Package cbg implements Constraint-Based Geolocation (Gueye et al.,
// IMC 2004) as described in §3.1 of the paper: per-landmark "bestline"
// calibration over delay-vs-distance scatter, bounded below by the
// physical 200 km/ms baseline, and disk multilateration.
//
// The same calibration machinery also serves CBG++ (package cbgpp),
// which adds the 84.5 km/ms "slowline" upper bound on travel-time
// estimates.
package cbg

import (
	"fmt"
	"math"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// baselineSlope is the travel time per km of the physical baseline:
// 1/200 ms/km (time as a function of distance).
const baselineSlope = 1.0 / geo.BaselineSpeedKmPerMs

// slowlineSlope is CBG++'s maximum slope: 1/84.5 ms/km.
const slowlineSlope = 1.0 / geo.SlowlineSpeedKmPerMs

// Options configure calibration.
type Options struct {
	// Slowline additionally constrains every bestline to speeds of at
	// least 84.5 km/ms (the CBG++ §5.1 modification).
	Slowline bool
}

// Calibration holds the per-landmark bestlines (one-way ms as a function
// of km) plus a pooled fallback for landmarks without their own mesh
// data (stable probes used as landmarks).
type Calibration struct {
	opts   Options
	lines  map[netsim.HostID]mathx.Line
	pooled mathx.Line
}

// Calibrate fits a bestline for every anchor from the constellation's
// mesh, and a pooled bestline over all samples as the probe fallback.
func Calibrate(cons *atlas.Constellation, opts Options) (*Calibration, error) {
	cal := &Calibration{opts: opts, lines: make(map[netsim.HostID]mathx.Line)}
	for _, a := range cons.Anchors() {
		pts := cons.Calibration(a.Host.ID)
		if len(pts) == 0 {
			continue
		}
		line, err := Fit(pts, opts)
		if err != nil {
			return nil, fmt.Errorf("cbg: calibrating %s: %w", a.Host.ID, err)
		}
		cal.lines[a.Host.ID] = line
	}
	pooled, err := Fit(cons.Pooled(), opts)
	if err != nil {
		return nil, fmt.Errorf("cbg: pooled calibration: %w", err)
	}
	cal.pooled = pooled
	return cal, nil
}

// Fit is the per-landmark fit: the bestline of one (distance km, RTT
// ms) scatter, a landmark's own mesh or the pooled samples. Calibrate
// and the coordination server's models both fit with it.
func Fit(pts []mathx.XY, opts Options) (mathx.Line, error) {
	return BestLine(ToOneWay(pts), opts.Slowline)
}

// ToOneWay converts (distance, RTT) calibration samples to the
// (distance, one-way ms) form BestLine consumes.
func ToOneWay(pts []mathx.XY) []mathx.XY {
	out := make([]mathx.XY, len(pts))
	for i, p := range pts {
		out[i] = mathx.XY{X: p.X, Y: geo.OneWayMs(p.Y)}
	}
	return out
}

// Line returns the bestline for a landmark, falling back to the pooled
// line for landmarks without their own calibration.
func (c *Calibration) Line(id netsim.HostID) mathx.Line {
	if l, ok := c.lines[id]; ok {
		return l
	}
	return c.pooled
}

// Pooled returns the pooled fallback bestline.
func (c *Calibration) Pooled() mathx.Line { return c.pooled }

// BestLine computes the CBG bestline for one landmark's calibration
// scatter of (distance km, one-way ms) points: the line
//
//	t = intercept + slope·d
//
// that lies below every point, has slope ≥ 1/200 ms/km (no
// faster-than-fiber speeds) and intercept ≥ 0, and among those is
// closest to the data (minimum total vertical distance). With slowline
// set, the slope is further clamped to ≤ 1/84.5 ms/km.
//
// The optimum of this two-variable linear program lies at a vertex of
// the feasible polygon, which is either a lower-convex-hull segment of
// the scatter or a point constraint intersected with one of the bounds.
func BestLine(pts []mathx.XY, slowline bool) (mathx.Line, error) {
	if len(pts) == 0 {
		return mathx.Line{}, mathx.ErrInsufficientData
	}
	var sumD float64
	for _, p := range pts {
		sumD += p.X
	}
	n := float64(len(pts))
	// Objective to maximize: n·c + Σd·m (equivalently minimize total
	// vertical distance from the points down to the line).
	objective := func(l mathx.Line) float64 { return n*l.Intercept + sumD*l.Slope }
	feasible := func(l mathx.Line) bool {
		if l.Intercept < -1e-9 || l.Slope < baselineSlope-1e-12 {
			return false
		}
		if slowline && l.Slope > slowlineSlope+1e-12 {
			return false
		}
		for _, p := range pts {
			if l.At(p.X) > p.Y+1e-9 {
				return false
			}
		}
		return true
	}

	var best mathx.Line
	bestObj := math.Inf(-1)
	consider := func(l mathx.Line) {
		if feasible(l) {
			if o := objective(l); o > bestObj {
				best, bestObj = l, o
			}
		}
	}

	// Candidate 1: lower-hull segments.
	hull := mathx.LowerHull(pts)
	for i := 1; i < len(hull); i++ {
		dx := hull[i].X - hull[i-1].X
		//lint:allow floatexact division-by-zero guard: only an exactly vertical hull segment has no slope
		if dx == 0 {
			continue
		}
		m := (hull[i].Y - hull[i-1].Y) / dx
		consider(mathx.Line{Slope: m, Intercept: hull[i].Y - m*hull[i].X})
	}
	// Candidate 2: baseline slope, maximal intercept below all points.
	consider(boundLine(pts, baselineSlope))
	// Candidate 3: zero intercept, minimal ratio slope.
	minRatio := math.Inf(1)
	for _, p := range pts {
		if p.X > 0 {
			if r := p.Y / p.X; r < minRatio {
				minRatio = r
			}
		}
	}
	if !math.IsInf(minRatio, 1) {
		consider(mathx.Line{Slope: minRatio, Intercept: 0})
	}
	// Candidate 4 (slowline only): slowline slope, maximal intercept.
	if slowline {
		consider(boundLine(pts, slowlineSlope))
	}

	if math.IsInf(bestObj, -1) {
		// No line with the required slope fits below all points and
		// above zero intercept (e.g. a point faster than the baseline,
		// which a correct simulator never produces, or — with slowline —
		// all points faster than 84.5 km/ms). Fall back to the pure
		// bound line with intercept clamped at zero.
		slope := baselineSlope
		if slowline {
			slope = slowlineSlope
		}
		l := boundLine(pts, slope)
		if l.Intercept < 0 {
			l.Intercept = 0
		}
		return l, nil
	}
	return best, nil
}

// boundLine returns the highest line of the given slope still below all
// points (its intercept may be negative).
func boundLine(pts []mathx.XY, slope float64) mathx.Line {
	c := math.Inf(1)
	for _, p := range pts {
		if v := p.Y - slope*p.X; v < c {
			c = v
		}
	}
	return mathx.Line{Slope: slope, Intercept: c}
}

// MaxDistanceKm converts a one-way travel time to the landmark's maximum
// distance estimate under its bestline, capped at the physical baseline
// distance and half the equator.
func (c *Calibration) MaxDistanceKm(id netsim.HostID, oneWayMs float64) float64 {
	line := c.Line(id)
	d := line.InvertX(oneWayMs)
	if lim := geo.MaxDistanceKm(oneWayMs, geo.BaselineSpeedKmPerMs); d > lim {
		d = lim
	}
	if d > geo.HalfEquatorKm {
		d = geo.HalfEquatorKm
	}
	return d
}

// CBG is the classic disk-intersection algorithm.
type CBG struct {
	env *geoloc.Env
	cal *Calibration
}

// New builds a CBG instance from an environment and calibration.
func New(env *geoloc.Env, cal *Calibration) *CBG {
	return &CBG{env: env, cal: cal}
}

// Name implements geoloc.Algorithm.
func (c *CBG) Name() string { return "CBG" }

// Calibration exposes the underlying calibration (used by CBG++ and the
// figure generators).
func (c *CBG) Calibration() *Calibration { return c.cal }

// maxDisks is how many disk constraints Locate holds in its stack
// buffer; more measurements spill to the heap.
const maxDisks = 64

// Locate implements geoloc.Algorithm: intersect all bestline disks, then
// apply the physical exclusions. The result may be empty — CBG fails
// when some disk underestimates (§5.1). Every disk is padded by the
// rasterization margin so boundary cells are kept, and is a disk
// constraint on the landmark's cached masks: the same word-wise strict
// intersection as CBG++'s strict-first exit.
//
// A disk constraint always keeps the landmark's own cell, where a plain
// cap keeps it only when its center lies within the radius. Every
// radius here is at least PadKm, which exceeds the distance from a
// landmark to its own cell's center outside the polar bands, so the two
// agree there (experiments.TestLandmarkCellWithinPad).
func (c *CBG) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := c.env.PadKm()
	var buf [maxDisks]grid.Constraint
	cs := buf[:0]
	for _, m := range ms {
		maxKm := c.cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()) + pad
		cs = append(cs, grid.Disk(c.env.MasksFor(m.LandmarkID, m.Landmark), c.env.Grid.CellAt(m.Landmark), maxKm))
	}
	region := c.env.Grid.Intersect(cs)
	if region.Empty() {
		return region, nil
	}
	return c.env.ApplyExclusions(region), nil
}

var _ geoloc.Algorithm = (*CBG)(nil)
