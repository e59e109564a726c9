package measure

import (
	"errors"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// Refiner implements the iterative refinement the paper sketches in
// §8.1: "additional probes and anchors [are] included in the measurement
// as necessary to reduce the size of the predicted region." After an
// initial two-phase result, each round measures the landmarks nearest
// the current prediction's centroid that have not been used yet, and
// re-localizes; it stops when the region stops shrinking meaningfully,
// the size target is met, or the round budget is exhausted.
type Refiner struct {
	Cons *atlas.Constellation
	Tool Tool
	// Locate is the localization function (usually CBG++'s Locate).
	Locate func(ms []geoloc.Measurement) (*grid.Region, error)

	// PerRound is how many new landmarks each round adds (default 10).
	PerRound int
	// MaxRounds bounds the refinement (default 4).
	MaxRounds int
	// TargetAreaKm2 stops refinement once the region is at most this
	// size (default 0: refine until no improvement).
	TargetAreaKm2 float64
	// MinShrink is the relative area reduction a round must achieve to
	// continue (default 0.05).
	MinShrink float64
	// Session, when set, routes every refinement measurement through
	// the resilient path: failed landmarks retry with backoff on the
	// simulated clock, budgets bound each round, and the degradation
	// ledger records what refinement lost. A terminal session (proxy
	// disconnected, campaign budget exhausted) stops refinement early
	// with whatever region the completed rounds produced.
	Session *Session
}

// RefineResult reports a refinement run.
type RefineResult struct {
	Region *grid.Region
	// Rounds actually executed (not counting the initial localization).
	Rounds int
	// Measurements is the full measurement set used for the final region.
	Measurements []geoloc.Measurement
	// AreaHistory records the region area after the initial localization
	// and after each round.
	AreaHistory []float64
}

// ErrNoRegion is returned when the initial localization yields nothing.
var ErrNoRegion = errors.New("measure: initial localization produced no region")

func (r *Refiner) perRound() int {
	if r.PerRound < 1 {
		return 10
	}
	return r.PerRound
}

func (r *Refiner) maxRounds() int {
	if r.MaxRounds < 1 {
		return 4
	}
	return r.MaxRounds
}

func (r *Refiner) minShrink() float64 {
	if r.MinShrink <= 0 {
		return 0.05
	}
	return r.MinShrink
}

// Run refines the localization of the host with the given ID, starting
// from initial measurements (typically a two-phase result).
func (r *Refiner) Run(from netsim.HostID, initial []geoloc.Measurement, rng *rand.Rand) (*RefineResult, error) {
	ms := append([]geoloc.Measurement(nil), initial...)
	region, err := r.Locate(ms)
	if err != nil {
		return nil, err
	}
	if region == nil || region.Empty() {
		return nil, ErrNoRegion
	}
	used := map[string]bool{}
	for _, m := range ms {
		used[string(m.LandmarkID)] = true
	}
	res := &RefineResult{
		Region:      region,
		AreaHistory: []float64{region.AreaKm2()},
	}

	for round := 0; round < r.maxRounds(); round++ {
		if r.TargetAreaKm2 > 0 && res.Region.AreaKm2() <= r.TargetAreaKm2 {
			break
		}
		if r.Session != nil && r.Session.Terminal() {
			break
		}
		centroid, ok := res.Region.Centroid()
		if !ok {
			break
		}
		next := r.nearestUnused(centroid, used, r.perRound())
		if len(next) == 0 {
			break
		}
		added := 0
		for _, lm := range next {
			s, err := r.Session.route(r.Tool, from, lm, rng)
			if err != nil {
				continue
			}
			used[string(lm.Host.ID)] = true
			ms = append(ms, geoloc.Measurement{
				LandmarkID: s.LandmarkID,
				Landmark:   s.Landmark,
				RTTms:      s.RTTms,
			})
			added++
		}
		if added == 0 {
			break
		}
		refined, err := r.Locate(ms)
		if err != nil || refined == nil || refined.Empty() {
			break
		}
		res.Rounds++
		prev := res.Region.AreaKm2()
		res.Region = refined
		res.AreaHistory = append(res.AreaHistory, refined.AreaKm2())
		if prev > 0 && (prev-refined.AreaKm2())/prev < r.minShrink() {
			break
		}
	}
	res.Measurements = ms
	r.Session.finish()
	return res, nil
}

// nearestUnused returns the n unused landmarks closest to p.
func (r *Refiner) nearestUnused(p geo.Point, used map[string]bool, n int) []*atlas.Landmark {
	type cand struct {
		lm *atlas.Landmark
		d  float64
	}
	var cands []cand
	for _, lm := range r.Cons.All() {
		if used[string(lm.Host.ID)] {
			continue
		}
		cands = append(cands, cand{lm, geo.DistanceKm(lm.Host.Loc, p)})
	}
	// Partial selection sort: n is small.
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].d < cands[min].d {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	out := make([]*atlas.Landmark, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].lm
	}
	return out
}
