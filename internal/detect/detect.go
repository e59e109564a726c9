// Package detect is the adversary-detection layer: it cross-validates
// every landmark against the inter-anchor calibration mesh to flag
// Byzantine landmarks (misreported positions, biased delay reports),
// and inspects each server's measurement pattern for the signatures of
// proxy-side manipulation (decoy rewrites, selective inflation or
// deflation, Gill-style constant shifts).
//
// The package never sees ground truth: it works from what the actors
// *report* — claimed landmark positions and as-reported RTTs — exactly
// the information a real auditor would have. The experiments layer
// scores its output against the adversary plan's ground truth to
// produce the precision/recall numbers the CI floors enforce.
//
// Everything here is pure computation over its inputs: no RNG, no
// clock, no map-order dependence, so detection verdicts inherit the
// pipeline's byte-identical determinism at any concurrency.
package detect

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// maxSpeedKmPerMs is the physical propagation bound the simulator
// enforces (200 km/ms in fibre, i.e. an RTT of t ms cannot cover more
// than 100·t km one way). A *claimed* geometry that breaks it proves a
// lie somewhere on the edge.
const maxSpeedKmPerMs = 200

// MeshEdge is one directed inter-anchor calibration observation as the
// auditor sees it: the distance the two endpoints' *claimed* positions
// imply, against the best RTT the owner *reported* for the pair.
type MeshEdge struct {
	From, To      netsim.HostID
	ClaimedDistKm float64
	MinRTTms      float64
}

// MeshEdges reconstructs the as-reported calibration mesh. reported
// maps a landmark to the position it claims (identity for honest
// landmarks); rttBias is the padding a landmark adds to the delays *it
// reports* (zero for honest landmarks). The bias lands only on the
// owning side: a Byzantine anchor can forge its own measurement logs,
// but it cannot alter what an honest peer times toward it. That
// asymmetry is precisely what cross-validation exploits. Edges follow
// the constellation's anchor order, so the slice is deterministic.
func MeshEdges(cons *atlas.Constellation, reported func(id netsim.HostID, trueLoc geo.Point) geo.Point, rttBias func(id netsim.HostID) float64) []MeshEdge {
	var edges []MeshEdge
	for _, a := range cons.Anchors() {
		from := a.Host.ID
		repFrom := reported(from, a.Host.Loc)
		for _, ps := range cons.CalibrationPairs(from) {
			peer := cons.Landmark(ps.Peer)
			if peer == nil || len(ps.RTTms) == 0 {
				continue
			}
			repPeer := reported(ps.Peer, peer.Host.Loc)
			edges = append(edges, MeshEdge{
				From:          from,
				To:            ps.Peer,
				ClaimedDistKm: geo.DistanceKm(repFrom, repPeer),
				MinRTTms:      ps.MinRTTms() + rttBias(from),
			})
		}
	}
	return edges
}

// CrossValidateConfig tunes the landmark cross-validation thresholds.
type CrossValidateConfig struct {
	// Trim is the robust-fit trim fraction for the global mesh line and
	// each per-anchor line.
	Trim float64
	// MinEdges is the fewest observations (in each direction) an anchor
	// needs to be judged.
	MinEdges int
	// BiasFloorMs and BiasK gate the bias-liar rule on the *differential*
	// intercept: the anchor's own-report fit minus the peer-view fit of
	// edges measured toward it. Honest congestion inflates both views
	// equally and cancels; forged report padding lands only on the own
	// side. Flag when the differential exceeds the population median by
	// max(BiasFloorMs, BiasK · population MAD).
	BiasFloorMs float64
	BiasK       float64
	// FloorViolations flags an anchor as displaced once this many of its
	// edges (own and peer-view combined) claim a distance the RTT
	// physically cannot cover. An edge only proves *one of its two
	// endpoints* lies, so violations are attributed greedily: the anchor
	// concentrating the most violating edges is flagged first and its
	// edges withdrawn, which exonerates the honest peers those edges
	// also touched.
	FloorViolations int
	// InterceptCapMs is the secondary displacement rule: an anchor whose
	// claimed position sits closer to the mesh than reality makes every
	// RTT look too slow for its distance, pushing a huge constant into
	// *both* views' intercepts — which the differential cancels but the
	// cap catches.
	InterceptCapMs float64
}

// DefaultCrossValidateConfig returns the tuned thresholds.
func DefaultCrossValidateConfig() CrossValidateConfig {
	return CrossValidateConfig{
		Trim:            0.25,
		MinEdges:        6,
		BiasFloorMs:     25,
		BiasK:           6,
		FloorViolations: 3,
		InterceptCapMs:  120,
	}
}

// LandmarkVerdict is one anchor's cross-validation outcome.
type LandmarkVerdict struct {
	ID netsim.HostID
	// Edges and PeerEdges count the anchor's own reports and the honest
	// world's measurements toward it.
	Edges     int
	PeerEdges int
	// InterceptMs and SlopeMsPerKm are the anchor's own robust
	// distance→RTT fit over the edges it reported; PeerInterceptMs is
	// the same fit over edges its peers reported toward it. ShiftMs is
	// the differential InterceptMs − PeerInterceptMs: honest path
	// quality cancels out of it, forged report padding does not.
	InterceptMs     float64
	PeerInterceptMs float64
	ShiftMs         float64
	SlopeMsPerKm    float64
	// OwnMADms is the residual MAD about the anchor's own fit.
	OwnMADms float64
	// FloorViolations counts edges (both views) whose claimed distance
	// exceeds what their RTT can physically cover.
	FloorViolations int
	Flagged         bool
	// Reason is "position" (physically impossible edges, or both views
	// pinned at an absurd intercept) or "bias" (own-vs-peer intercept
	// differential); position wins when both trip — the physical
	// evidence is the stronger claim.
	Reason string
}

// LandmarkReport is the cross-validation of the whole mesh.
type LandmarkReport struct {
	// Fit is the robust global distance→RTT line; MADms the robust
	// spread of its residuals — the honest-network baseline.
	Fit   mathx.Line
	MADms float64
	// Verdicts follow the constellation's anchor order.
	Verdicts []LandmarkVerdict
	// Flagged lists the suspected landmark IDs, sorted.
	Flagged []netsim.HostID
}

// IsFlagged reports whether the given landmark was flagged.
func (r *LandmarkReport) IsFlagged(id netsim.HostID) bool {
	if r == nil {
		return false
	}
	i := sort.Search(len(r.Flagged), func(i int) bool { return r.Flagged[i] >= id })
	return i < len(r.Flagged) && r.Flagged[i] == id
}

// ErrDegenerateMesh is returned by CrossValidate when the mesh admits no
// global fit: fewer than two edges, or no robust line through them (the
// fit's own error is wrapped). Without that baseline no anchor can be
// judged, so an armed audit must not proceed as if all were honest.
var ErrDegenerateMesh = errors.New("detect: degenerate calibration mesh")

// CrossValidate fits the global distance→RTT line robustly (Byzantine
// edges are the contamination the trimmed fit shrugs off), then judges
// each anchor by comparing two views of it: the fit over edges the
// anchor *reported* versus the fit over edges honest peers measured
// *toward* it. An honestly-congested anchor elevates both views
// identically, so the differential intercept isolates forged report
// padding; a misreported position corrupts the claimed distances in
// both views, surfacing as physically impossible edges or a pinned
// intercept no real path explains. Thresholds adapt to the population
// via median/MAD, so the honest majority defines "normal". A mesh with
// no global fit is an ErrDegenerateMesh.
func CrossValidate(edges []MeshEdge, cfg CrossValidateConfig) (*LandmarkReport, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("%w: %d edges", ErrDegenerateMesh, len(edges))
	}
	dist := make([]float64, len(edges))
	rtt := make([]float64, len(edges))
	for i, e := range edges {
		dist[i] = e.ClaimedDistKm
		rtt[i] = e.MinRTTms
	}
	fit, err := mathx.TrimmedLine(dist, rtt, cfg.Trim)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDegenerateMesh, err)
	}
	rep := &LandmarkReport{Fit: fit}
	resid := make([]float64, len(edges))
	for i, e := range edges {
		resid[i] = e.MinRTTms - fit.At(e.ClaimedDistKm)
	}
	rep.MADms = mathx.MAD(resid)

	// Group edges by owner (own view) and by target (peer view),
	// first-seen owner order.
	var order []netsim.HostID
	byOwner := map[netsim.HostID][]MeshEdge{}
	byTarget := map[netsim.HostID][]MeshEdge{}
	for _, e := range edges {
		if _, seen := byOwner[e.From]; !seen {
			order = append(order, e.From)
		}
		byOwner[e.From] = append(byOwner[e.From], e)
		byTarget[e.To] = append(byTarget[e.To], e)
	}

	// Physically impossible edges, attributed greedily: each violation
	// proves one of its two endpoints lies, so repeatedly flag the
	// anchor concentrating the most violations and withdraw its edges —
	// the honest peers those edges also touched are exonerated.
	var violations [][2]netsim.HostID
	for _, e := range edges {
		if e.ClaimedDistKm > e.MinRTTms*maxSpeedKmPerMs/2 {
			violations = append(violations, [2]netsim.HostID{e.From, e.To})
		}
	}
	displacedSet := map[netsim.HostID]bool{}
	for {
		counts := map[netsim.HostID]int{}
		for _, v := range violations {
			counts[v[0]]++
			counts[v[1]]++
		}
		var worst netsim.HostID
		worstN := 0
		for _, id := range order {
			if n := counts[id]; n > worstN {
				worst, worstN = id, n
			}
		}
		if worstN < cfg.FloorViolations {
			break
		}
		displacedSet[worst] = true
		kept := violations[:0]
		for _, v := range violations {
			if v[0] != worst && v[1] != worst {
				kept = append(kept, v)
			}
		}
		violations = kept
	}

	verdicts := make([]LandmarkVerdict, len(order))
	for i, id := range order {
		own := byOwner[id]
		peer := byTarget[id]
		v := LandmarkVerdict{ID: id, Edges: len(own), PeerEdges: len(peer)}
		fitView := func(es []MeshEdge) (mathx.Line, float64, bool) {
			xs := make([]float64, len(es))
			ys := make([]float64, len(es))
			for j, e := range es {
				xs[j] = e.ClaimedDistKm
				ys[j] = e.MinRTTms
				if e.ClaimedDistKm > e.MinRTTms*maxSpeedKmPerMs/2 {
					v.FloorViolations++
				}
			}
			ln, ferr := mathx.TrimmedLine(xs, ys, cfg.Trim)
			if ferr != nil {
				return mathx.Line{}, 0, false
			}
			rs := make([]float64, len(es))
			for j := range es {
				rs[j] = ys[j] - ln.At(xs[j])
			}
			return ln, mathx.MAD(rs), true
		}
		ownFit, ownMAD, ownOK := fitView(own)
		peerFit, _, peerOK := fitView(peer)
		if ownOK {
			v.InterceptMs = ownFit.Intercept
			v.SlopeMsPerKm = ownFit.Slope
			v.OwnMADms = ownMAD
		}
		if peerOK {
			v.PeerInterceptMs = peerFit.Intercept
		}
		if ownOK && peerOK {
			v.ShiftMs = ownFit.Intercept - peerFit.Intercept
		}
		verdicts[i] = v
	}

	// Population statistics over the differentials: the honest majority
	// centers near zero and defines the spread the threshold scales with.
	shifts := make([]float64, len(verdicts))
	for i, v := range verdicts {
		shifts[i] = v.ShiftMs
	}
	centerShift := mathx.Median(shifts)
	biasGate := math.Max(cfg.BiasFloorMs, cfg.BiasK*mathx.MAD(shifts))

	for i := range verdicts {
		v := &verdicts[i]
		displaced := displacedSet[v.ID]
		if v.Edges >= cfg.MinEdges && v.PeerEdges >= cfg.MinEdges {
			displaced = displaced || math.Min(v.InterceptMs, v.PeerInterceptMs) > cfg.InterceptCapMs
			if !displaced && v.ShiftMs-centerShift > biasGate {
				v.Flagged, v.Reason = true, "bias"
			}
		}
		if displaced {
			v.Flagged, v.Reason = true, "position"
		}
		if v.Flagged {
			rep.Flagged = append(rep.Flagged, v.ID)
		}
	}
	rep.Verdicts = verdicts
	sort.Slice(rep.Flagged, func(i, j int) bool { return rep.Flagged[i] < rep.Flagged[j] })
	return rep, nil
}

// Detector reason bits, in canonical order, packed into one byte.
const (
	// ReasonSmooth: residuals are too clean — forged delays carry only
	// the attacker's small synthetic noise, not the network's spread.
	ReasonSmooth uint8 = 1 << iota
	// ReasonSpread: residuals are far too dispersed — the selective
	// inflation signature (a shifted subset no single line absorbs).
	ReasonSpread
	// ReasonShift: the fitted intercept carries a large constant
	// offset — the Gill-style added-delay signature.
	ReasonShift
	// ReasonSlow: the fitted distance→RTT slope collapsed toward zero —
	// deflation pins every landmark near the client-leg floor, erasing
	// the distance dependence real propagation always shows.
	ReasonSlow
	// ReasonFast: the fitted slope implies propagation markedly slower
	// than the network's effective speed — the decoy-rewrite signature,
	// where forged delays are synthesized at a conservative pretend
	// speed to keep the decoy geometry self-consistent.
	ReasonFast
)

// reasonNames follows the bit order above.
var reasonNames = []string{"smooth", "spread", "shift", "slow", "fast"}

// MaskStrings renders a reason mask as the canonical reason names.
func MaskStrings(mask uint8) []string {
	var out []string
	for i, name := range reasonNames {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// InspectConfig tunes the per-server manipulation detectors. The
// spread and shift gates calibrate against the audited population
// (JudgeServers), so "normal" is whatever the honest majority of
// servers looks like under the current network conditions; the slope
// and smoothness gates are absolute, anchored to the physics the
// simulator (and the real internet) enforces.
type InspectConfig struct {
	// MinMeasurements is the fewest samples a verdict needs.
	MinMeasurements int
	// Trim is the robust-fit trim fraction for the server's own line.
	Trim float64
	// SpreadFloorMs and SpreadFactor gate ReasonSpread: flag when the
	// residual MAD exceeds max(SpreadFloorMs, SpreadFactor · population
	// median MAD).
	SpreadFloorMs float64
	SpreadFactor  float64
	// ShiftFloorMs and ShiftK gate ReasonShift: flag when the fitted
	// intercept exceeds the population median by max(ShiftFloorMs,
	// ShiftK · population MAD).
	ShiftFloorMs float64
	ShiftK       float64
	// SlowSlope trips ReasonSlow when the fitted slope falls below it
	// (ms/km; honest round-trip propagation here runs ≈ 0.012).
	SlowSlope float64
	// FastFloor and FastK gate ReasonFast: flag when the fitted slope
	// exceeds the population median by max(FastFloor, FastK ·
	// population MAD) — i.e. the implied propagation is markedly slower
	// per km than the honest majority's.
	FastFloor float64
	FastK     float64
	// SmoothFloorMs trips ReasonSmooth when the residual MAD falls
	// below it — real measurement noise never collapses this far.
	SmoothFloorMs float64
}

// DefaultInspectConfig returns the tuned thresholds.
func DefaultInspectConfig() InspectConfig {
	return InspectConfig{
		MinMeasurements: 8,
		Trim:            0.35,
		SpreadFloorMs:   15,
		SpreadFactor:    3.5,
		ShiftFloorMs:    40,
		ShiftK:          8,
		SlowSlope:       0.0095,
		FastFloor:       0.005,
		FastK:           4,
		SmoothFloorMs:   1.2,
	}
}

// Inspection is one server's manipulation verdict.
type Inspection struct {
	// N is the number of measurements inspected; Fitted is false when
	// there were too few to fit (the verdict stays clear).
	N      int
	Fitted bool
	// MADms, InterceptMs and SlopeMsPerKm are the robust fit of
	// distance-to-centroid against corrected RTT.
	MADms        float64
	InterceptMs  float64
	SlopeMsPerKm float64
	// Suspected is true when any detector tripped. Score is the
	// strongest detector's signal-to-threshold ratio (values above 1
	// mean suspected; the margin grades confidence). ReasonMask has one
	// bit per tripped detector (Reason* constants); Reasons renders it
	// in canonical order. All three are set by JudgeServers.
	Suspected  bool
	Score      float64
	ReasonMask uint8
	Reasons    []string
}

// InspectServer fits one server's (as-corrected) measurement set
// against the location it was localized to. centroid is the prediction
// region's centroid — under attack that is where the *forged* geometry
// points, which is exactly the self-consistency the detectors probe.
// The fit is pure per-server statistics; JudgeServers applies the
// population-calibrated thresholds afterwards.
func InspectServer(ms []geoloc.Measurement, centroid geo.Point, cfg InspectConfig) Inspection {
	insp := Inspection{N: len(ms)}
	if len(ms) < cfg.MinMeasurements {
		return insp
	}
	dist := make([]float64, len(ms))
	rtt := make([]float64, len(ms))
	for i, m := range ms {
		dist[i] = geo.DistanceKm(centroid, m.Landmark)
		rtt[i] = m.RTTms
	}
	fit, err := mathx.TrimmedLine(dist, rtt, cfg.Trim)
	if err != nil {
		return insp
	}
	resid := make([]float64, len(ms))
	for i := range ms {
		resid[i] = rtt[i] - fit.At(dist[i])
	}
	insp.Fitted = true
	insp.MADms = mathx.MAD(resid)
	insp.InterceptMs = fit.Intercept
	insp.SlopeMsPerKm = fit.Slope
	return insp
}

// lowerMAD is the median absolute deviation computed over the values
// at or below the median only — a one-sided robust scale that stays
// calibrated when the contamination all lies above the center.
func lowerMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := mathx.Median(xs)
	var dev []float64
	for _, x := range xs {
		if x <= med {
			dev = append(dev, med-x)
		}
	}
	return mathx.Median(dev)
}

// JudgeServers applies the detection thresholds to a whole audit's
// inspections at once. The spread and shift gates scale with the
// population's median/MAD — the honest majority of servers calibrates
// "normal" — while the slope and smoothness gates are absolute. The
// returned map carries the same inspections with Suspected, Score and
// the reason fields filled in. Population statistics are order-free
// (each population is sorted before its medians are selected), so the
// result is deterministic whatever order the inspections were produced
// in.
func JudgeServers(insps map[string]Inspection, cfg InspectConfig) map[string]Inspection {
	var mads, iceps, slopes []float64
	for _, insp := range insps {
		if insp.Fitted {
			mads = append(mads, insp.MADms)
			iceps = append(iceps, insp.InterceptMs)
			slopes = append(slopes, insp.SlopeMsPerKm)
		}
	}
	// The gates only consume medians and MADs, but sorting here erases
	// the map-iteration order entirely rather than trusting every
	// downstream consumer to be order-free.
	sort.Float64s(mads)
	sort.Float64s(iceps)
	sort.Float64s(slopes)
	spreadGate := math.Max(cfg.SpreadFloorMs, cfg.SpreadFactor*mathx.Median(mads))
	shiftGate := mathx.Median(iceps) + math.Max(cfg.ShiftFloorMs, cfg.ShiftK*mathx.MAD(iceps))
	// The slope spread comes from the lower half only: every slope
	// attack pushes the fit *away* from the honest propagation speed, so
	// the below-median population stays uncontaminated while liars in
	// the upper half would otherwise widen their own gate.
	fastGate := mathx.Median(slopes) + math.Max(cfg.FastFloor, cfg.FastK*lowerMAD(slopes))

	out := make(map[string]Inspection, len(insps))
	for id, insp := range insps {
		if insp.Fitted {
			// Every ratio is computed unconditionally and in a fixed
			// order, so Score is a deterministic function of the inputs.
			const tiny = 1e-9
			spreadRatio := insp.MADms / math.Max(spreadGate, tiny)
			shiftRatio := insp.InterceptMs / math.Max(shiftGate, tiny)
			slowRatio := cfg.SlowSlope / math.Max(insp.SlopeMsPerKm, cfg.SlowSlope/100)
			fastRatio := insp.SlopeMsPerKm / math.Max(fastGate, tiny)
			smoothRatio := cfg.SmoothFloorMs / math.Max(insp.MADms, cfg.SmoothFloorMs/100)
			if smoothRatio >= 1 {
				insp.ReasonMask |= ReasonSmooth
			}
			if spreadRatio >= 1 {
				insp.ReasonMask |= ReasonSpread
			}
			if shiftRatio >= 1 {
				insp.ReasonMask |= ReasonShift
			}
			if slowRatio >= 1 {
				insp.ReasonMask |= ReasonSlow
			}
			if fastRatio >= 1 {
				insp.ReasonMask |= ReasonFast
			}
			insp.Score = spreadRatio
			for _, r := range []float64{shiftRatio, slowRatio, fastRatio, smoothRatio} {
				insp.Score = math.Max(insp.Score, r)
			}
			if insp.Score < 0 {
				insp.Score = 0
			}
			insp.Suspected = insp.ReasonMask != 0
			insp.Reasons = MaskStrings(insp.ReasonMask)
		}
		out[id] = insp
	}
	return out
}
