package measure

import (
	"math"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// The adversary plan: a seeded, deterministic description of which
// actors lie and how. Proxies can forge their apparent location (decoy
// rewrite), selectively inflate or deflate per-landmark RTTs, or add a
// Gill-style constant delay; landmarks can turn Byzantine — misreport
// their position or bias the calibration measurements they contribute
// to the inter-anchor mesh (the BFT-PoLoc threat model). Every
// membership draw is a pure hash of (plan seed, host ID), so an armed
// plan perturbs the pipeline identically at any concurrency and in any
// fleet order, and the zero plan is exactly the honest pipeline.

// ProxyAttack selects a lying proxy's manipulation strategy.
type ProxyAttack int

// The attack taxonomy (Abdou & van Oorschot; paper §8).
const (
	// AttackNone leaves every proxy honest.
	AttackNone ProxyAttack = iota
	// AttackDecoy rewrites apparent RTTs to match a decoy location.
	AttackDecoy
	// AttackInflate adds delay to a targeted landmark subset.
	AttackInflate
	// AttackDeflate forges early SYN-ACKs toward a targeted subset.
	AttackDeflate
	// AttackDelay adds a constant delay to every measurement.
	AttackDelay
)

// String implements fmt.Stringer.
func (a ProxyAttack) String() string {
	switch a {
	case AttackNone:
		return "none"
	case AttackDecoy:
		return "decoy"
	case AttackInflate:
		return "inflate"
	case AttackDeflate:
		return "deflate"
	case AttackDelay:
		return "delay"
	default:
		return "unknown"
	}
}

// MarshalText implements encoding.TextMarshaler, so reports name the
// attack instead of numbering it.
func (a ProxyAttack) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// AdversaryPlan arms the adversary layer. The zero value (and a nil
// plan) is fully disabled: every pipeline behaves byte-identically to
// the honest engine, which is what the golden-fingerprint regression
// pins.
type AdversaryPlan struct {
	// Seed drives every membership and geometry hash.
	Seed int64 `json:"seed"`

	// Attack is the lying proxies' strategy; ProxyFraction the fraction
	// of the fleet that lies (pure hash draw per proxy ID).
	Attack        ProxyAttack `json:"attack"`
	ProxyFraction float64     `json:"proxy_fraction"`
	// Aggressiveness scales the attack strength in (0, 1]; zero means
	// full strength.
	Aggressiveness float64 `json:"aggressiveness"`
	// PretendSpeedKmPerMs is the speed the decoy rewrite's forged
	// delays imply (default 120 km/ms, a plausible terrestrial path
	// speed; the full 200 km/ms would look suspiciously fast).
	PretendSpeedKmPerMs float64 `json:"pretend_speed_km_per_ms"`

	// ByzantineFraction is the fraction of anchors that lie (pure hash
	// draw per anchor ID). Each Byzantine anchor deterministically
	// either misreports its position by positionLieKm or pads
	// meshBiasMs onto every RTT it reports.
	ByzantineFraction float64 `json:"byzantine_fraction"`

	// DetectOnly arms the detection layer with zero liars: every actor
	// is honest, but cross-validation and per-server inspection still
	// run. The attack matrix's control point uses this to charge false
	// positives on clean traffic against detection precision.
	DetectOnly bool `json:"detect_only"`
}

// Enabled reports whether the adversary layer is armed (false for nil).
func (p *AdversaryPlan) Enabled() bool {
	if p == nil {
		return false
	}
	return (p.Attack != AttackNone && p.ProxyFraction > 0) || p.ByzantineFraction > 0 || p.DetectOnly
}

// Signature folds the plan into a deterministic dependency stamp, the
// counterpart of netsim.FaultConfig.Signature for incremental
// consumers: verdicts computed under one plan are stale under another.
// nil and the zero plan share the stable "disabled" signature.
func (p *AdversaryPlan) Signature() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	if p == nil {
		p = &AdversaryPlan{}
	}
	mix(uint64(p.Seed))
	mix(uint64(p.Attack))
	if p.DetectOnly {
		mix(1)
	} else {
		mix(0)
	}
	for _, v := range []float64{
		p.ProxyFraction, p.Aggressiveness, p.PretendSpeedKmPerMs, p.ByzantineFraction,
	} {
		mix(math.Float64bits(v))
	}
	return h
}

func (p *AdversaryPlan) aggressiveness() float64 {
	if p.Aggressiveness <= 0 || p.Aggressiveness > 1 {
		return 1
	}
	return p.Aggressiveness
}

func (p *AdversaryPlan) pretendSpeed() float64 {
	if p.PretendSpeedKmPerMs <= 0 {
		return 120
	}
	return p.PretendSpeedKmPerMs
}

// targeted reports whether the selective attacks (AttackInflate,
// AttackDeflate) hit this landmark: half the landmarks, chosen by a pure
// hash of (Seed, id) — never the RNG, so the attacked subset is
// identical at any concurrency and in any measurement order.
func (p *AdversaryPlan) targeted(id netsim.HostID) bool {
	return hashFraction(p.Seed, "advtarget", string(id)) < 0.5
}

// LyingProxy reports whether the plan makes this proxy lie — the ground
// truth the detection scorer checks precision/recall against.
func (p *AdversaryPlan) LyingProxy(id netsim.HostID) bool {
	if p == nil || p.Attack == AttackNone || p.ProxyFraction <= 0 {
		return false
	}
	return hashFraction(p.Seed, "advproxy", string(id)) < p.ProxyFraction
}

// ByzantineLandmark reports whether the plan makes this landmark lie.
func (p *AdversaryPlan) ByzantineLandmark(id netsim.HostID) bool {
	if p == nil || p.ByzantineFraction <= 0 {
		return false
	}
	return hashFraction(p.Seed, "advlandmark", string(id)) < p.ByzantineFraction
}

// PositionLiar reports whether a Byzantine landmark lies by misreporting
// its position (the alternative is biasing its reported delays). The
// mode is a deterministic coin per landmark.
func (p *AdversaryPlan) PositionLiar(id netsim.HostID) bool {
	return p.ByzantineLandmark(id) && hashFraction(p.Seed, "advposmode", string(id)) < 0.5
}

// BiasLiar reports whether a Byzantine landmark lies by padding the
// delays it reports.
func (p *AdversaryPlan) BiasLiar(id netsim.HostID) bool {
	return p.ByzantineLandmark(id) && !p.PositionLiar(id)
}

// ReportedPosition is the position the landmark claims: its true
// location, unless it is a position liar — then a point displaced by
// positionLieKm at a hash-chosen bearing.
func (p *AdversaryPlan) ReportedPosition(id netsim.HostID, true_ geo.Point) geo.Point {
	if !p.PositionLiar(id) {
		return true_
	}
	bearing := 360 * hashFraction(p.Seed, "advbearing", string(id))
	return geo.DestinationPoint(true_, bearing, positionLieKm)
}

// ReportBiasMs is the delay the landmark pads onto every RTT it
// reports (zero for honest and position-lying landmarks).
func (p *AdversaryPlan) ReportBiasMs(id netsim.HostID) float64 {
	if p == nil || !p.BiasLiar(id) {
		return 0
	}
	return meshBiasMs
}

// DecoyFor is the decoy location a lying proxy forges under
// AttackDecoy: a hash-chosen bearing and a 4000–9000 km displacement
// from its true location, far enough that the forged region is
// geographically distinct.
func (p *AdversaryPlan) DecoyFor(id netsim.HostID, true_ geo.Point) geo.Point {
	bearing := 360 * hashFraction(p.Seed, "advdecoybrg", string(id))
	dist := 4000 + 5000*hashFraction(p.Seed, "advdecoykm", string(id))
	return geo.DestinationPoint(true_, bearing, dist)
}

// byzantineTool post-processes samples for Byzantine landmarks: a
// position liar's samples carry its misreported coordinates into the
// localization inputs, and a bias liar pads its response time. Only
// anchors can be Byzantine — they are the mesh participants BFT-PoLoc
// models; probes don't calibrate and so have no trigonometry to
// subvert. The wrapper adds no RNG draws, so honest landmarks'
// measurements are untouched bytes.
type byzantineTool struct {
	inner Tool
	plan  *AdversaryPlan
}

// Measure implements Tool.
func (b byzantineTool) Measure(from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	s, err := b.inner.Measure(from, lm, rng)
	if err != nil {
		return s, err
	}
	if lm.IsAnchor && b.plan.ByzantineLandmark(lm.Host.ID) {
		s.Landmark = b.plan.ReportedPosition(lm.Host.ID, lm.Host.Loc)
		s.RTTms += b.plan.ReportBiasMs(lm.Host.ID)
	}
	return s, nil
}
