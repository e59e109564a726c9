package measure

import (
	"errors"
	"fmt"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// DefaultEta is the paper's measured relationship between direct and
// indirect (self-ping through the proxy) round-trip times: the robust
// regression in Figure 13 found a slope of 0.49 with R² > 0.99 —
// "almost exactly 1/2", because pinging yourself through the proxy
// crosses the client↔proxy leg twice.
const DefaultEta = 0.49

// proxyOverheadMs is the processing delay a proxy adds per forwarded
// round trip.
const proxyOverheadMs = 0.8

// ProxiedTool measures landmarks through a network proxy: the observed
// time is the client↔proxy RTT plus the proxy↔landmark RTT (§2,
// "Challenges of geolocating proxies").
type ProxiedTool struct {
	Net      *netsim.Network
	Client   netsim.HostID
	Proxy    netsim.HostID
	Attempts int // default 3
	// Clock, when set, is advanced by the simulated time each leg
	// consumes (nil pins the session to time zero).
	Clock *netsim.Clock

	// out and back are the client→proxy and proxy→client legs,
	// resolved on first use: Net, Client and Proxy must not change
	// after the tool has measured.
	out, back netsim.Path
	resolved  bool
}

// legs returns the client→proxy and proxy→client legs.
func (t *ProxiedTool) legs() (out, back *netsim.Path) {
	if !t.resolved {
		t.out = t.Net.Path(t.Client, t.Proxy)
		t.back = t.Net.Path(t.Proxy, t.Client)
		t.resolved = true
	}
	return &t.out, &t.back
}

// Measure implements Tool. The from argument is ignored — the client
// configured on the tool originates every measurement, matching the
// paper's single-client setup in Frankfurt.
func (t *ProxiedTool) Measure(_ netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	client, _ := t.legs()
	landmark := t.Net.Path(t.Proxy, lm.Host.ID)
	best := -1.0
	for i := 0; i < attempts(t.Attempts); i++ {
		leg1, err := client.SampleRTTMs(rng)
		if err != nil {
			return Sample{}, fmt.Errorf("measure: proxied %s→%s: %w", t.Client, t.Proxy, err)
		}
		t.Clock.Advance(leg1)
		leg2, err := landmark.Probe(HTTPPort, rng, t.Clock)
		if err != nil {
			return Sample{}, fmt.Errorf("measure: proxied %s→%s: %w", t.Proxy, lm.Host.ID, err)
		}
		rtt := leg1 + leg2 + proxyOverheadMs
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	return Sample{LandmarkID: lm.Host.ID, Landmark: lm.Host.Loc, RTTms: best, Trips: 1}, nil
}

// SelfPing measures the client pinging itself through the proxy
// (Figure 12): the packet crosses the client↔proxy leg twice, so the
// result is slightly more than twice the direct client↔proxy RTT.
func (t *ProxiedTool) SelfPing(rng *rand.Rand) (float64, error) {
	outLeg, backLeg := t.legs()
	best := -1.0
	for i := 0; i < attempts(t.Attempts); i++ {
		out, err := outLeg.SampleRTTMs(rng)
		if err != nil {
			return 0, err
		}
		back, err := backLeg.SampleRTTMs(rng)
		if err != nil {
			return 0, err
		}
		v := out + back + proxyOverheadMs
		t.Clock.Advance(v)
		if best < 0 || v < best {
			best = v
		}
	}
	return best, nil
}

// CorrectForProxy removes the client↔proxy leg from proxied samples:
// A = B − ηC, where B is the proxied RTT, C the self-ping RTT and η the
// calibrated direct/indirect ratio (DefaultEta when zero). Samples whose
// corrected RTT would be non-positive are dropped.
func CorrectForProxy(samples []Sample, selfPingMs, eta float64) []Sample {
	if eta == 0 {
		eta = DefaultEta
	}
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		corrected := s.RTTms - eta*selfPingMs
		if corrected <= 0 {
			continue
		}
		s.RTTms = corrected
		out = append(out, s)
	}
	return out
}

// EstimateEta reproduces the Figure 13 calibration: given paired direct
// and indirect (self-ping) RTTs for proxies that happen to answer pings
// both ways, it fits a robust (Theil–Sen) regression of direct on
// indirect and returns the slope η and the fit's R².
func EstimateEta(directMs, indirectMs []float64) (eta, r2 float64, err error) {
	if len(directMs) != len(indirectMs) {
		return 0, 0, errors.New("measure: mismatched direct/indirect sample counts")
	}
	line, err := mathx.TheilSen(indirectMs, directMs)
	if err != nil {
		return 0, 0, err
	}
	pred := make([]float64, len(directMs))
	for i, x := range indirectMs {
		pred[i] = line.At(x)
	}
	return line.Slope, mathx.RSquared(directMs, pred), nil
}

// ProxiedTwoPhase runs the full §6 pipeline for one proxy on the
// honest, fault-free path: ProxiedTwoPhaseAdversarial with the zero
// Policy and no adversary plan.
func ProxiedTwoPhase(cons *atlas.Constellation, client, proxy netsim.HostID, eta float64, rng *rand.Rand) (*Result, error) {
	return ProxiedTwoPhaseAdversarial(cons, client, proxy, eta, Policy{}, nil, rng)
}

// ProxiedTwoPhaseAdversarial runs the full §6 pipeline for one proxy:
// self-ping, two-phase measurement through the proxy, and per-sample η
// correction. An enabled Policy adds fault resilience — retries,
// backoff and budgets on the simulated session clock — and attaches a
// Degradation ledger of everything the campaign lost; a campaign that
// degrades still returns its partial Result as long as phase one
// produced a sample. An armed plan swaps in the proxy's attack when it
// lies and overlays the Byzantine anchors' reports. The zero Policy
// and a nil or disabled plan take no draws of their own, so honest
// proxies measure identically under any plan.
func ProxiedTwoPhaseAdversarial(cons *atlas.Constellation, client, proxy netsim.HostID, eta float64, pol Policy, plan *AdversaryPlan, rng *rand.Rand) (*Result, error) {
	net := cons.Net()
	var sess *Session
	pt := &ProxiedTool{Net: net, Client: client, Proxy: proxy}
	if pol.Enabled() {
		sess = NewSession(net, pol, rng)
		pt.Clock = sess.Clock
	}
	self, err := pt.SelfPing(rng)
	if err != nil {
		return nil, err
	}
	var tool Tool = pt
	if plan.LyingProxy(proxy) {
		trueLoc := geo.Point{}
		if h := net.Host(proxy); h != nil {
			trueLoc = h.Loc
		}
		tool = liarTool{pt, plan, plan.DecoyFor(proxy, trueLoc)}
	}
	if plan != nil && plan.ByzantineFraction > 0 {
		tool = byzantineTool{inner: tool, plan: plan}
	}
	tp := &TwoPhase{Cons: cons, Tool: tool, Session: sess}
	res, err := tp.Run(proxy, rng)
	if err != nil {
		return nil, err
	}
	res.Phase1 = CorrectForProxy(res.Phase1, self, eta)
	res.Phase2 = CorrectForProxy(res.Phase2, self, eta)
	return res, nil
}
