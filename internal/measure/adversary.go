package measure

import (
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// The fixed magnitudes of the plan's attacks; AdversaryPlan's
// Aggressiveness scales the proxy attacks, Byzantine anchors lie at
// full strength.
const (
	// inflateMs is the delay AttackInflate adds to a targeted landmark.
	inflateMs = 80
	// deflateKeep is the fraction of the proxy↔landmark component
	// AttackDeflate's forged early SYN-ACKs keep.
	deflateKeep = 0.25
	// extraDelayMs is AttackDelay's constant shift.
	extraDelayMs = 120
	// positionLieKm is how far a position-lying anchor displaces its
	// reported coordinates.
	positionLieKm = 2500
	// meshBiasMs is the delay a bias-lying anchor pads onto every RTT
	// it reports — its mesh rows and its responses to probes alike.
	meshBiasMs = 40
)

// liarTool wraps a ProxiedTool with the attacks the paper's Discussion
// (§8) warns about, as the plan's Attack selects. A proxy sits in the
// middle of every measurement, so it can manipulate apparent RTTs in
// both directions more easily than the end-host adversaries of Gill et
// al. and Abdou et al.:
//
//   - selective *added* delay per landmark (AttackInflate) displaces
//     the prediction region away from the proxy's true location;
//   - forged early SYN-ACKs — trivial for the proxy, which sees the
//     SYNs and needs no sequence-number guessing — *shorten* apparent
//     RTTs (AttackDeflate), or rewrite every landmark's apparent
//     proxy↔landmark time to match the decoy location (AttackDecoy);
//   - AttackDelay is the cruder Gill-style constant shift.
//
// Whatever the strategy, the client leg cannot be forged below its real
// value — the client talks to the proxy directly — so every manipulated
// RTT is floored at the measured client↔proxy time.
type liarTool struct {
	inner *ProxiedTool
	plan  *AdversaryPlan
	decoy geo.Point
}

// Measure implements Tool, so the lying proxy drops into TwoPhase and
// Session exactly where the honest ProxiedTool would.
func (a liarTool) Measure(_ netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	s, err := a.inner.Measure("", lm, rng)
	if err != nil {
		return Sample{}, err
	}
	client, _ := a.inner.legs()
	clientLeg, err := client.BaseRTTMs()
	if err != nil {
		return Sample{}, err
	}
	aggr := a.plan.aggressiveness()
	switch a.plan.Attack {
	case AttackDecoy:
		// The time a proxy at the decoy would plausibly produce: the
		// decoy–landmark great-circle distance at the pretend speed.
		d := geo.DistanceKm(a.decoy, lm.Host.Loc)
		forged := clientLeg + 2*d/a.plan.pretendSpeed() + 2 + rng.Float64()*3
		s.RTTms += aggr * (forged - s.RTTms)
	case AttackInflate:
		if a.plan.targeted(lm.Host.ID) {
			s.RTTms += aggr * inflateMs
		}
	case AttackDeflate:
		if a.plan.targeted(lm.Host.ID) {
			keep := 1 - aggr*(1-deflateKeep)
			s.RTTms = clientLeg + keep*(s.RTTms-clientLeg)
		}
	case AttackDelay:
		s.RTTms += aggr * extraDelayMs
	}
	if s.RTTms < clientLeg {
		s.RTTms = clientLeg
	}
	return s, nil
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
