// Package hybrid implements the paper's Quasi-Octant/Spotter hybrid
// (§3.4), built to separate the effect of Spotter's probabilistic
// multilateration from its cubic-polynomial delay model: it uses
// Spotter's fitted µ/σ curves but Quasi-Octant's ring-based
// multilateration, with each ring spanning [µ−5σ, µ+5σ].
package hybrid

import (
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/spotter"
)

// SigmaSpan is how many standard deviations the ring extends on each
// side of the mean distance.
const SigmaSpan = 5.0

// Hybrid combines Spotter's delay model with ring multilateration.
type Hybrid struct {
	env   *geoloc.Env
	model *spotter.Model
}

// New builds a Hybrid instance from a fitted Spotter model.
func New(env *geoloc.Env, model *spotter.Model) *Hybrid {
	return &Hybrid{env: env, model: model}
}

// Name implements geoloc.Algorithm.
func (h *Hybrid) Name() string { return "Hybrid" }

// Rings returns the µ±5σ annulus constraints for a measurement set.
func (h *Hybrid) Rings(ms []geoloc.Measurement) []geo.Ring {
	ms = geoloc.Collapse(ms)
	rings := make([]geo.Ring, 0, len(ms))
	for _, m := range ms {
		t := m.OneWayMs()
		mu, sig := h.model.MuKm(t), h.model.SigmaKm(t)
		min := mu - SigmaSpan*sig
		if min < 0 {
			min = 0
		}
		max := mu + SigmaSpan*sig
		if max > geo.HalfEquatorKm {
			max = geo.HalfEquatorKm
		}
		rings = append(rings, geo.Ring{Center: m.Landmark, MinKm: min, MaxKm: max})
	}
	return rings
}

// Locate implements geoloc.Algorithm: the cells covered by the largest
// number of µ±5σ rings, restricted to the physical exclusions. Ring
// rasterization draws on the Env's shared landmark distance fields.
func (h *Hybrid) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	ms = geoloc.Collapse(ms)
	if len(ms) == 0 {
		return nil, geoloc.ErrNoMeasurements
	}
	pad := h.env.PadKm()
	cs := make([]grid.Constraint, 0, len(ms))
	for _, m := range ms {
		t := m.OneWayMs()
		mu, sig := h.model.MuKm(t), h.model.SigmaKm(t)
		r := geo.Ring{Center: m.Landmark, MinKm: mu - SigmaSpan*sig, MaxKm: mu + SigmaSpan*sig}
		if r.MaxKm > geo.HalfEquatorKm {
			r.MaxKm = geo.HalfEquatorKm
		}
		r.MaxKm += pad
		r.MinKm -= pad
		if r.MinKm < 0 {
			r.MinKm = 0
		}
		cs = append(cs, h.env.RingConstraint(m.LandmarkID, r))
	}
	best := geoloc.IntersectOrArgmax(h.env.Grid, cs)
	return h.env.ApplyExclusions(best), nil
}

var _ geoloc.Algorithm = (*Hybrid)(nil)
