package measure

import (
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// AdversarialProxiedTool wraps a ProxiedTool with the attacks the
// paper's Discussion (§8) warns about. A proxy sits in the middle of
// every measurement, so it can manipulate apparent RTTs in both
// directions more easily than the end-host adversaries of Gill et al.
// and Abdou et al.:
//
//   - selective *added* delay per landmark displaces the prediction
//     region away from the proxy's true location;
//   - forged early SYN-ACKs — trivial for the proxy, which sees the SYNs
//     and needs no sequence-number guessing — *shorten* apparent RTTs,
//     pulling the prediction toward a chosen decoy.
//
// The Decoy policy implements the natural combined strategy: make every
// landmark's apparent proxy↔landmark time look as if the proxy were at
// the decoy location. InflateMs and DeflateKeep implement the selective
// per-landmark variants of Abdou's delay-manipulation taxonomy, and
// ExtraDelayMs the cruder Gill-style constant shift. Whatever the
// strategy, the client leg cannot be forged below its real value — the
// client talks to the proxy directly — so every manipulated RTT is
// floored at the measured client↔proxy time.
type AdversarialProxiedTool struct {
	Inner *ProxiedTool

	// Decoy, when set, rewrites each apparent proxy↔landmark RTT to the
	// time a proxy at the decoy location would plausibly produce
	// (decoy–landmark great-circle distance at the pretend speed).
	Decoy *geo.Point
	// PretendSpeedKmPerMs is the speed the forged delays imply
	// (default: 120 km/ms, a plausible terrestrial path speed; using the
	// full 200 km/ms would look suspiciously fast).
	PretendSpeedKmPerMs float64
	// ExtraDelayMs adds a constant to every measurement instead of (or
	// on top of) the decoy rewrite — the cruder Gill et al. attack.
	ExtraDelayMs float64

	// Aggressiveness blends the decoy rewrite with the honest
	// observation: 1 replaces the apparent RTT outright, 0.5 moves it
	// halfway toward the forgery. Zero (the historical zero value)
	// means full aggressiveness, so existing decoy configurations are
	// unchanged.
	Aggressiveness float64
	// InflateMs, when positive, adds that many milliseconds to the
	// RTTs of the targeted landmark subset — selective inflation.
	InflateMs float64
	// DeflateKeep, when in (0, 1), shrinks the targeted landmarks'
	// proxy↔landmark component to that fraction of its honest value —
	// selective early SYN-ACKs. The client-leg floor still holds.
	DeflateKeep float64
	// TargetFraction is the fraction of landmarks the selective attacks
	// (InflateMs, DeflateKeep) hit, chosen by a pure hash of
	// (SelectSeed, landmark ID) so the targeted set is deterministic
	// and independent of measurement order. Zero means half.
	TargetFraction float64
	// SelectSeed seeds the target-selection hash.
	SelectSeed int64
}

func (a *AdversarialProxiedTool) pretendSpeed() float64 {
	if a.PretendSpeedKmPerMs <= 0 {
		return 120
	}
	return a.PretendSpeedKmPerMs
}

func (a *AdversarialProxiedTool) aggressiveness() float64 {
	switch {
	case a.Aggressiveness <= 0:
		return 1
	case a.Aggressiveness > 1:
		return 1
	default:
		return a.Aggressiveness
	}
}

// Targeted reports whether the selective attacks hit this landmark: a
// pure function of (SelectSeed, id), never of the RNG, so the attacked
// subset is identical at any concurrency and in any measurement order.
func (a *AdversarialProxiedTool) Targeted(id netsim.HostID) bool {
	f := a.TargetFraction
	if f <= 0 {
		f = 0.5
	}
	return hashFraction(a.SelectSeed, "advtarget", string(id)) < f
}

// MeasureLandmark performs one manipulated measurement.
func (a *AdversarialProxiedTool) MeasureLandmark(lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	s, err := a.Inner.Measure("", lm, rng)
	if err != nil {
		return Sample{}, err
	}
	// The client leg cannot be forged below its real value — the client
	// talks to the proxy directly — so the adversary manipulates only
	// the proxy↔landmark component.
	clientLeg, err := a.Inner.Net.BaseRTTMs(a.Inner.Client, a.Inner.Proxy)
	if err != nil {
		return Sample{}, err
	}
	if a.Decoy != nil {
		d := geo.DistanceKm(*a.Decoy, lm.Host.Loc)
		forged := clientLeg + 2*d/a.pretendSpeed() + 2 + rng.Float64()*3
		s.RTTms += a.aggressiveness() * (forged - s.RTTms)
	}
	if a.InflateMs > 0 && a.Targeted(lm.Host.ID) {
		s.RTTms += a.aggressiveness() * a.InflateMs
	}
	if a.DeflateKeep > 0 && a.DeflateKeep < 1 && a.Targeted(lm.Host.ID) {
		keep := 1 - a.aggressiveness()*(1-a.DeflateKeep)
		s.RTTms = clientLeg + keep*(s.RTTms-clientLeg)
	}
	s.RTTms += a.ExtraDelayMs
	if s.RTTms < clientLeg {
		s.RTTms = clientLeg
	}
	return s, nil
}

// Measure implements Tool, so the adversarial tool drops into TwoPhase,
// Session and Batch exactly where the honest ProxiedTool would.
func (a *AdversarialProxiedTool) Measure(_ netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	return a.MeasureLandmark(lm, rng)
}

var _ Tool = (*AdversarialProxiedTool)(nil)

// MeasureAll measures every given landmark with the manipulated tool.
func (a *AdversarialProxiedTool) MeasureAll(lms []*atlas.Landmark, rng *rand.Rand) []Sample {
	var out []Sample
	for _, lm := range lms {
		s, err := a.MeasureLandmark(lm, rng)
		if err != nil {
			continue
		}
		out = append(out, s)
	}
	return out
}

// hashFraction maps (seed, kind, id) to a uniform [0, 1) draw via the
// same FNV-1a host hash the fault layer uses for its pure structural
// draws — never the measurement RNG, so attack membership is a property
// of the configuration, not of scheduling. As in netsim's Outage, the
// hash of "kind|seed|id" seeds a generator rather than being used as raw
// bits (FNV's avalanche on near-identical IDs is too weak for direct
// use); netsim.SeedFloat64s reads that generator's first draw without
// building it.
func hashFraction(seed int64, kind, id string) float64 {
	h := netsim.NewKeyHash().Str(kind).Str("|").Int(seed).Str("|").Str(id)
	return netsim.SeedFloat64s(int64(h), 1)[0]
}
