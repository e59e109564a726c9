// Package cbgpp implements CBG++, the paper's own algorithm (§5.1):
// CBG with two modifications that eliminate underestimation misses.
//
//  1. The slowline: bestlines are constrained to travel-speed estimates
//     no slower than 84.5 km/ms, because one-way times above 237 ms may
//     involve a geostationary satellite hop and carry no distance
//     information.
//  2. Baseline-region filtering: alongside each landmark's bestline
//     disk, a larger disk at the physical 200 km/ms baseline is drawn.
//     The "baseline region" is the intersection of the largest subset of
//     baseline disks with a nonempty common intersection; any bestline
//     disk that does not overlap it is discarded as an underestimate,
//     and the final "bestline region" is the intersection of the largest
//     consistent subset of the remaining bestline disks.
//
// Both filters exist for inconsistent bestline disks. When every
// bestline disk shares a cell, neither changes anything and the region
// is the plain intersection of the bestline disks, so the
// largest-consistent-subset searches run only when the bestline disks
// share no cell (LocateDetailed). Those searches are exact on the grid
// (grid.Grid.CoverageArgmax): a cell covered by k disks witnesses a
// k-subset with nonempty intersection, so the cells attaining the
// maximum coverage count are precisely the intersection of the largest
// subset(s) — no powerset search needed.
package cbgpp

import (
	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
)

// Options toggle the two CBG++ modifications, for ablation.
type Options struct {
	// DisableSlowline turns off the 84.5 km/ms clamp.
	DisableSlowline bool
	// DisableBaselineFilter turns off baseline-region disk filtering and
	// falls back to plain largest-consistent-subset over bestline disks.
	DisableBaselineFilter bool
}

// CBGPP is the CBG++ algorithm.
type CBGPP struct {
	env  *geoloc.Env
	cal  *cbg.Calibration
	opts Options
}

// Calibrate fits CBG++ bestlines (slowline-clamped unless disabled).
func Calibrate(cons *atlas.Constellation, opts Options) (*cbg.Calibration, error) {
	return cbg.Calibrate(cons, cbg.Options{Slowline: !opts.DisableSlowline})
}

// New builds a CBG++ instance.
func New(env *geoloc.Env, cal *cbg.Calibration, opts Options) *CBGPP {
	return &CBGPP{env: env, cal: cal, opts: opts}
}

// Name implements geoloc.Algorithm.
func (c *CBGPP) Name() string { return "CBG++" }

// Calibration exposes the fitted bestlines.
func (c *CBGPP) Calibration() *cbg.Calibration { return c.cal }

// BaselineRegion computes the baseline region for a measurement set: the
// intersection of the largest consistent subset of 200 km/ms disks.
func (c *CBGPP) BaselineRegion(ms []geoloc.Measurement) *grid.Region {
	_, base := c.disks(geoloc.Collapse(ms))
	best, _ := c.env.Grid.CoverageArgmax(base)
	return best
}

// disks returns each measurement's bestline and baseline disks, padded
// for rasterization, from one mask lookup per landmark.
func (c *CBGPP) disks(ms []geoloc.Measurement) (best, base []grid.Constraint) {
	pad := c.env.PadKm()
	cs := make([]grid.Constraint, 2*len(ms))
	best, base = cs[:len(ms)], cs[len(ms):]
	for i, m := range ms {
		cm := c.env.MasksFor(m.LandmarkID, m.Landmark)
		cell := c.env.Grid.CellAt(m.Landmark)
		t := m.OneWayMs()
		best[i] = grid.Disk(cm, cell, c.cal.MaxDistanceKm(m.LandmarkID, t)+pad)
		base[i] = grid.Disk(cm, cell, geo.MaxDistanceKm(t, geo.BaselineSpeedKmPerMs)+pad)
	}
	return best, base
}

// Locate implements geoloc.Algorithm.
func (c *CBGPP) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	region, _, err := c.LocateDetailed(ms)
	return region, err
}

// LocateDetailed returns the prediction region plus the number of
// bestline disks that survived baseline filtering (used by the
// landmark-effectiveness analysis, Figure 11).
func (c *CBGPP) LocateDetailed(ms []geoloc.Measurement) (*grid.Region, int, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, 0, geoloc.ErrNoMeasurements
	}
	kept, base := c.disks(ms)
	// Strict first (DESIGN.md §8): if the bestline disks share a cell,
	// their intersection is the answer, with or without the filter.
	// cbg.Calibration.MaxDistanceKm clamps at the baseline distance and
	// both disks add the same pad on the same masks, so each bestline
	// disk lies inside its baseline disk cell for cell. A shared bestline
	// cell then lies in every baseline disk, so the baseline region is
	// the k-way intersection of the baseline disks, it holds that cell,
	// every bestline disk meets it and none is dropped, and the argmax
	// over all k bestline disks is their intersection.
	if strict := c.env.Grid.Intersect(kept); !strict.Empty() {
		return c.env.ApplyExclusions(strict), len(kept), nil
	}
	if !c.opts.DisableBaselineFilter {
		baseRegion, _ := c.env.Grid.CoverageArgmax(base)
		n := 0
		for _, d := range kept {
			if d.Intersects(baseRegion) {
				kept[n] = d
				n++
			}
		}
		kept = kept[:n]
		if len(kept) == 0 {
			// Every bestline disk was inconsistent with the baseline
			// region: trust the baseline region itself.
			return c.env.ApplyExclusions(baseRegion), 0, nil
		}
	}

	best, _ := c.env.Grid.CoverageArgmax(kept)
	return c.env.ApplyExclusions(best), len(kept), nil
}

var _ geoloc.Algorithm = (*CBGPP)(nil)
