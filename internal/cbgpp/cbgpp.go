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
// The largest-consistent-subset searches are exact on the grid
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
	return c.baselineRegion(geoloc.Collapse(ms))
}

// baselineRegion is BaselineRegion over an already-collapsed
// measurement set.
func (c *CBGPP) baselineRegion(ms []geoloc.Measurement) *grid.Region {
	pad := c.env.PadKm()
	regions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		r := geo.MaxDistanceKm(m.OneWayMs(), geo.BaselineSpeedKmPerMs) + pad
		regions = append(regions, c.env.CapRegionFor(m.LandmarkID, geo.Cap{Center: m.Landmark, RadiusKm: r}))
	}
	best, _ := c.env.Grid.CoverageArgmax(regions)
	return best
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
	pad := c.env.PadKm()

	bestlineRegions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		r := c.cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()) + pad
		bestlineRegions = append(bestlineRegions, c.env.CapRegionFor(m.LandmarkID, geo.Cap{Center: m.Landmark, RadiusKm: r}))
	}

	kept := bestlineRegions
	if !c.opts.DisableBaselineFilter {
		baseRegion := c.baselineRegion(ms)
		kept = kept[:0:0]
		for _, br := range bestlineRegions {
			if br.IntersectsRegion(baseRegion) {
				kept = append(kept, br)
			}
		}
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
