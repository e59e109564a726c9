// Package refimpl preserves the pre-kernel implementations of the five
// localization algorithms: per-cell haversine trigonometry with no
// distance-field cache, exactly as the algorithms computed before the
// geometry kernel (internal/geo.Vec3 + grid.DistanceField) landed.
//
// It exists for two reasons:
//
//  1. Equivalence testing. The kernel's dot-product membership test is
//     monotone-equivalent to the haversine test, so every algorithm must
//     produce the same region through either path (up to documented
//     ulp-level boundary ties; see the package tests). Each reference
//     Locate is composed from grid.Region.AddCapReference, the
//     haversine helpers below, and the algorithms' exported calibration
//     APIs, so it shares no fast-path geometry code with the kernel.
//     On the quick lab's own vectors the regions must match exactly
//     (experiments.TestQuickLocateMatchesReference).
//  2. Honest "before" benchmarks. The root BenchmarkLocateReference and
//     BenchmarkSpotterLocateReference time these against the kernel
//     implementations (BenchmarkLocateKernel, BenchmarkSpotterLocate).
//
// One deliberate divergence: the pre-kernel Spotter sorted scored cells
// with an unstable comparator on the score alone, so equal-score cells
// ordered nondeterministically. The reference here adopts the same
// deterministic tie-break (ascending cell index) as the fixed Spotter,
// so equivalence comparisons isolate geometry differences from the
// sort-stability bugfix.
package refimpl

import (
	"math"
	"sort"

	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/hybrid"
	"activegeo/internal/octant"
	"activegeo/internal/spotter"
)

// capRegionReference rasterizes a spherical cap with the pre-kernel
// per-cell haversine test.
func capRegionReference(g *grid.Grid, c geo.Cap) *grid.Region {
	r := g.NewRegion()
	r.AddCapReference(c)
	return r
}

// intersectCapReference removes every cell whose center is outside the
// cap, with the pre-kernel per-cell haversine test.
func intersectCapReference(r *grid.Region, c geo.Cap) {
	g := r.Grid()
	r.Each(func(i int) {
		if !c.Contains(g.Center(i)) {
			r.Remove(i)
		}
	})
}

// ringRegionReference is the pre-kernel ring rasterization: outer cap
// minus the inner cap shrunk by one cell diagonal, both via haversine.
func ringRegionReference(g *grid.Grid, ring geo.Ring) *grid.Region {
	outer := capRegionReference(g, geo.Cap{Center: ring.Center, RadiusKm: ring.MaxKm})
	if ring.MinKm > 0 {
		shrink := ring.MinKm - 1.5*grid.KmPerDeg*g.Resolution()
		if shrink > 0 {
			inner := capRegionReference(g, geo.Cap{Center: ring.Center, RadiusKm: shrink})
			outer.SubtractWith(inner)
		}
	}
	return outer
}

// CBG is the pre-kernel CBG: pad disks, intersect starting from the
// smallest, haversine per cell.
type CBG struct {
	Env *geoloc.Env
	Cal *cbg.Calibration
}

// Name implements geoloc.Algorithm.
func (c *CBG) Name() string { return "CBG (reference)" }

// Locate implements geoloc.Algorithm with the pre-kernel disk
// intersection.
func (c *CBG) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := c.Env.PadKm()
	disks := make([]geo.Cap, len(ms))
	min := 0
	for i, m := range ms {
		disks[i] = geo.Cap{
			Center:   m.Landmark,
			RadiusKm: c.Cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()) + pad,
		}
		if disks[i].RadiusKm < disks[min].RadiusKm {
			min = i
		}
	}
	region := capRegionReference(c.Env.Grid, disks[min])
	for i, d := range disks {
		if i == min {
			continue
		}
		intersectCapReference(region, d)
		if region.Empty() {
			return region, nil
		}
	}
	return c.Env.ApplyExclusions(region), nil
}

// CBGPP is the pre-kernel CBG++: baseline-region filtering over
// haversine-rasterized disks.
type CBGPP struct {
	Env  *geoloc.Env
	Cal  *cbg.Calibration
	Opts cbgpp.Options
}

// Name implements geoloc.Algorithm.
func (c *CBGPP) Name() string { return "CBG++ (reference)" }

// baselineRegion is the pre-kernel CBGPP.BaselineRegion.
func (c *CBGPP) baselineRegion(ms []geoloc.Measurement) *grid.Region {
	pad := c.Env.PadKm()
	regions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		r := geo.MaxDistanceKm(m.OneWayMs(), geo.BaselineSpeedKmPerMs) + pad
		regions = append(regions, capRegionReference(c.Env.Grid, geo.Cap{Center: m.Landmark, RadiusKm: r}))
	}
	best, _ := geoloc.CoverageArgmax(c.Env.Grid, regions)
	return best
}

// Locate implements geoloc.Algorithm with the pre-kernel CBG++ pipeline.
func (c *CBGPP) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := c.Env.PadKm()

	bestlineRegions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		r := c.Cal.MaxDistanceKm(m.LandmarkID, m.OneWayMs()) + pad
		bestlineRegions = append(bestlineRegions, capRegionReference(c.Env.Grid, geo.Cap{Center: m.Landmark, RadiusKm: r}))
	}

	kept := bestlineRegions
	if !c.Opts.DisableBaselineFilter {
		baseRegion := c.baselineRegion(ms)
		kept = kept[:0:0]
		for _, br := range bestlineRegions {
			if br.IntersectsRegion(baseRegion) {
				kept = append(kept, br)
			}
		}
		if len(kept) == 0 {
			return c.Env.ApplyExclusions(baseRegion), nil
		}
	}

	best, _ := geoloc.CoverageArgmax(c.Env.Grid, kept)
	return c.Env.ApplyExclusions(best), nil
}

// Octant is the pre-kernel Quasi-Octant: padded rings rasterized with
// haversine caps, then IntersectOrArgmax.
type Octant struct {
	Env *geoloc.Env
	Cal *octant.Calibration
}

// Name implements geoloc.Algorithm.
func (o *Octant) Name() string { return "Quasi-Octant (reference)" }

// Locate implements geoloc.Algorithm with the pre-kernel ring
// multilateration.
func (o *Octant) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := o.Env.PadKm()
	regions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		cv := o.Cal.Curves(m.LandmarkID)
		t := m.OneWayMs()
		r := geo.Ring{
			Center: m.Landmark,
			MinKm:  cv.MinDistanceKm(t) - pad,
			MaxKm:  cv.MaxDistanceKm(t) + pad,
		}
		if r.MinKm < 0 {
			r.MinKm = 0
		}
		regions = append(regions, ringRegionReference(o.Env.Grid, r))
	}
	best := geoloc.IntersectOrArgmax(o.Env.Grid, regions)
	return o.Env.ApplyExclusions(best), nil
}

// Hybrid is the pre-kernel Spotter/Octant hybrid: µ±5σ rings rasterized
// with haversine caps.
type Hybrid struct {
	Env   *geoloc.Env
	Model *spotter.Model
}

// Name implements geoloc.Algorithm.
func (h *Hybrid) Name() string { return "Hybrid (reference)" }

// Locate implements geoloc.Algorithm with the pre-kernel hybrid rings.
func (h *Hybrid) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := h.Env.PadKm()
	regions := make([]*grid.Region, 0, len(ms))
	for _, m := range ms {
		t := m.OneWayMs()
		mu, sig := h.Model.MuKm(t), h.Model.SigmaKm(t)
		r := geo.Ring{Center: m.Landmark, MinKm: mu - hybrid.SigmaSpan*sig, MaxKm: mu + hybrid.SigmaSpan*sig}
		if r.MinKm < 0 {
			r.MinKm = 0
		}
		if r.MaxKm > geo.HalfEquatorKm {
			r.MaxKm = geo.HalfEquatorKm
		}
		r.MaxKm += pad
		r.MinKm -= pad
		if r.MinKm < 0 {
			r.MinKm = 0
		}
		regions = append(regions, ringRegionReference(h.Env.Grid, r))
	}
	best := geoloc.IntersectOrArgmax(h.Env.Grid, regions)
	return h.Env.ApplyExclusions(best), nil
}

// Spotter is the pre-kernel Spotter: a full land scan evaluating the
// delay model and a haversine distance per (cell, measurement) pair,
// with no pruning and no cached distance fields.
type Spotter struct {
	Env   *geoloc.Env
	Model *spotter.Model
}

// Name implements geoloc.Algorithm.
func (s *Spotter) Name() string { return "Spotter (reference)" }

// Locate implements geoloc.Algorithm with the pre-kernel posterior scan.
func (s *Spotter) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	g := s.Env.Grid
	land := s.Env.Mask.LandRef()

	type scored struct {
		cell int
		logp float64
	}
	cells := make([]scored, 0, land.Count())
	land.Each(func(i int) {
		p := g.Center(i)
		lp := 0.0
		for _, m := range ms {
			d := geo.DistanceKm(m.Landmark, p)
			t := m.OneWayMs()
			mu, sig := s.Model.MuKm(t), s.Model.SigmaKm(t)
			z := (d - mu) / sig
			lp += -0.5*z*z - math.Log(sig)
		}
		cells = append(cells, scored{cell: i, logp: lp})
	})
	if len(cells) == 0 {
		return g.NewRegion(), nil
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].logp != cells[j].logp {
			return cells[i].logp > cells[j].logp
		}
		return cells[i].cell < cells[j].cell
	})

	best := cells[0].logp
	var total float64
	masses := make([]float64, len(cells))
	for i, c := range cells {
		masses[i] = math.Exp(c.logp-best) * g.CellArea(c.cell)
		total += masses[i]
	}
	region := g.NewRegion()
	var acc float64
	for i, c := range cells {
		region.Add(c.cell)
		acc += masses[i]
		if acc >= spotter.MassFraction*total {
			break
		}
	}
	return region, nil
}

var (
	_ geoloc.Algorithm = (*CBG)(nil)
	_ geoloc.Algorithm = (*CBGPP)(nil)
	_ geoloc.Algorithm = (*Octant)(nil)
	_ geoloc.Algorithm = (*Hybrid)(nil)
	_ geoloc.Algorithm = (*Spotter)(nil)
)
