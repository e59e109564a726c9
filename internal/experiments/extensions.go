package experiments

import (
	"fmt"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/measure"
	"activegeo/internal/proxy"
)

// The experiments in this file reproduce the paper's §8/§8.1 discussion
// and future-work items: iterative refinement, proxy co-location
// detection, the indirect-measurement error study, and the adversarial
// RTT-manipulation threat analysis.

// ExtRefinementResult summarizes the §8.1 iterative-refinement proposal.
type ExtRefinementResult struct {
	Hosts          int
	MeanAreaBefore float64
	MeanAreaAfter  float64
	MeanRounds     float64
	StillCovered   int
}

// ExtRefinement measures how much iterative refinement shrinks CBG++
// regions on crowd hosts, starting from a sparse two-phase result.
func (l *Lab) ExtRefinement(maxHosts int) (*ExtRefinementResult, error) {
	rng := l.rng(81)
	if maxHosts <= 0 || maxHosts > len(l.Crowd) {
		maxHosts = len(l.Crowd)
	}
	tool := &measure.CLITool{Net: l.Net}
	ref := &measure.Refiner{
		Cons:   l.Cons,
		Tool:   tool,
		Locate: func(ms []geoloc.Measurement) (*grid.Region, error) { return l.CBGpp.Locate(ms) },
	}
	res := &ExtRefinementResult{}
	for _, h := range l.Crowd[:maxHosts] {
		tp := &measure.TwoPhase{Cons: l.Cons, Tool: tool, SecondPhase: 8}
		initial, err := tp.Run(h.ID, rng)
		if err != nil {
			continue
		}
		rr, err := ref.Run(h.ID, initial.Measurements(), rng)
		if err != nil {
			continue
		}
		res.Hosts++
		res.MeanAreaBefore += rr.AreaHistory[0]
		res.MeanAreaAfter += rr.Region.AreaKm2()
		res.MeanRounds += float64(rr.Rounds)
		if rr.Region.DistanceToPointKm(h.TrueLoc) <= 1.2*grid.KmPerDeg*l.Env.Grid.Resolution() {
			res.StillCovered++
		}
	}
	if res.Hosts == 0 {
		return nil, fmt.Errorf("experiments: no refinable hosts")
	}
	n := float64(res.Hosts)
	res.MeanAreaBefore /= n
	res.MeanAreaAfter /= n
	res.MeanRounds /= n
	return res, nil
}

// Render formats the result.
func (r *ExtRefinementResult) Render() string {
	return fmt.Sprintf(
		"Ext §8.1 refinement | %d hosts: mean region %.0f → %.0f km² (%.1f rounds avg), %d/%d still cover the truth",
		r.Hosts, r.MeanAreaBefore, r.MeanAreaAfter, r.MeanRounds, r.StillCovered, r.Hosts)
}

// ExtCoLocationResult summarizes the §8.1 proxy-mesh pilot.
type ExtCoLocationResult struct {
	ServersTested      int
	Groups             int
	GroupedServers     int
	CrossCountryGroups int
	// Accuracy: fraction of groups whose members truly share a DC.
	PureGroups int
}

// ExtCoLocation runs the proxy-to-proxy RTT mesh over one provider's
// servers.
func (l *Lab) ExtCoLocation(providerName string, maxServers int) (*ExtCoLocationResult, error) {
	p := l.Fleet.Provider(providerName)
	if p == nil {
		return nil, fmt.Errorf("experiments: unknown provider %q", providerName)
	}
	servers := p.Servers
	if maxServers > 0 && len(servers) > maxServers {
		servers = servers[:maxServers]
	}
	rng := l.rng(82)
	groups := proxy.CoLocate(l.Net, servers, 0, 3, rng)
	res := &ExtCoLocationResult{ServersTested: len(servers), Groups: len(groups)}
	for _, g := range groups {
		res.GroupedServers += len(g)
		pure := true
		for _, s := range g[1:] {
			if s.Host.DataCenter != g[0].Host.DataCenter {
				pure = false
			}
		}
		if pure {
			res.PureGroups++
		}
	}
	res.CrossCountryGroups = len(proxy.CrossCountryCoLocations(groups))
	return res, nil
}

// Render formats the result.
func (r *ExtCoLocationResult) Render() string {
	return fmt.Sprintf(
		"Ext §8.1 co-location | %d servers: %d groups (%d servers, %d pure same-DC), %d groups claim multiple countries (the paper's pilot observation)",
		r.ServersTested, r.Groups, r.GroupedServers, r.PureGroups, r.CrossCountryGroups)
}

// ExtIndirectErrorResult quantifies the error added by the indirect
// (through-proxy) measurement procedure — the §8.1 "test-bench VPN
// servers of our own, in known locations" study.
type ExtIndirectErrorResult struct {
	Servers            int
	MeanDirectMissKm   float64
	MeanIndirectMissKm float64
	MeanDirectArea     float64
	MeanIndirectArea   float64
}

// ExtIndirectError places test-bench proxies in known locations and
// locates each twice: directly (measuring from the server itself, as if
// we owned it) and indirectly (through the proxy with η correction).
func (l *Lab) ExtIndirectError(maxServers int) (*ExtIndirectErrorResult, error) {
	rng := l.rng(83)
	servers := l.Fleet.Servers()
	if maxServers > 0 && len(servers) > maxServers {
		servers = servers[:maxServers]
	}
	tool := &measure.CLITool{Net: l.Net}
	res := &ExtIndirectErrorResult{}
	for _, s := range servers {
		// Direct: we own the test-bench server and run the tool on it.
		tp := &measure.TwoPhase{Cons: l.Cons, Tool: tool}
		direct, err := tp.Run(s.Host.ID, rng)
		if err != nil {
			continue
		}
		directRegion, err := l.CBGpp.Locate(direct.Measurements())
		if err != nil || directRegion.Empty() {
			continue
		}
		// Indirect: the §6 pipeline.
		ind, err := measure.ProxiedTwoPhase(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, rng)
		if err != nil {
			continue
		}
		indRegion, err := l.CBGpp.Locate(ind.Measurements())
		if err != nil || indRegion.Empty() {
			continue
		}
		res.Servers++
		dc, _ := directRegion.Centroid()
		ic, _ := indRegion.Centroid()
		res.MeanDirectMissKm += geo.DistanceKm(dc, s.Host.Loc)
		res.MeanIndirectMissKm += geo.DistanceKm(ic, s.Host.Loc)
		res.MeanDirectArea += directRegion.AreaKm2()
		res.MeanIndirectArea += indRegion.AreaKm2()
	}
	if res.Servers == 0 {
		return nil, fmt.Errorf("experiments: no test-bench servers located")
	}
	n := float64(res.Servers)
	res.MeanDirectMissKm /= n
	res.MeanIndirectMissKm /= n
	res.MeanDirectArea /= n
	res.MeanIndirectArea /= n
	return res, nil
}

// Render formats the result.
func (r *ExtIndirectErrorResult) Render() string {
	return fmt.Sprintf(
		"Ext §8.1 indirect error | %d test-bench servers: centroid miss %.0f km direct vs %.0f km indirect; region %.0f vs %.0f km²",
		r.Servers, r.MeanDirectMissKm, r.MeanIndirectMissKm, r.MeanDirectArea, r.MeanIndirectArea)
}

// ExtConstellationsResult is the §8.1 multi-constellation study: "This
// would allow us to compare the delay-distance relationships observed
// across constellations to those observed within a single constellation,
// and thus investigate the degree of overestimation."
type ExtConstellationsResult struct {
	// WithinMedianRatio is the median bestline-estimate/true-distance
	// ratio for RIPE-anchor↔RIPE-anchor measurements.
	WithinMedianRatio float64
	// CrossMedianRatio maps constellation name to the same ratio for
	// RIPE-anchor→foreign-node measurements. Ratios above the within
	// value quantify how much RIPE-calibrated bestlines overestimate for
	// ordinary hosts.
	CrossMedianRatio map[string]float64
	Pairs            map[string]int
}

// ExtConstellations builds CAIDA-Ark-like and PlanetLab-like
// constellations in the same network and measures the overestimation of
// the RIPE-calibrated bestlines against them.
func (l *Lab) ExtConstellations() (*ExtConstellationsResult, error) {
	rng := l.rng(85)
	cal := l.CBGpp.Calibration()

	res := &ExtConstellationsResult{
		CrossMedianRatio: map[string]float64{},
		Pairs:            map[string]int{},
	}
	// Within-RIPE baseline.
	var within []float64
	for _, a := range l.Cons.Anchors() {
		for _, pair := range l.Cons.CalibrationPairs(a.Host.ID) {
			if pair.DistKm < 100 {
				continue
			}
			est := cal.MaxDistanceKm(a.Host.ID, geo.OneWayMs(pair.MinRTTms()))
			within = append(within, est/pair.DistKm)
		}
	}
	res.WithinMedianRatio = median(within)
	res.Pairs["ripe"] = len(within)

	foreign := []struct {
		name                 string
		accessMin, accessMax float64
	}{
		// Ark monitors: mixed hosting, noticeably worse last mile.
		{"ark", 2.0, 8.0},
		// PlanetLab: academic networks, excellent connectivity.
		{"planetlab", 0.3, 1.0},
	}
	for _, f := range foreign {
		other, err := buildForeign(l, f.name, f.accessMin, f.accessMax, rng)
		if err != nil {
			return nil, err
		}
		var ratios []float64
		for _, a := range l.Cons.Anchors() {
			for _, n := range other {
				d := geo.DistanceKm(a.Host.Loc, n.Host.Loc)
				if d < 100 {
					continue
				}
				rtt, err := l.Net.MinOfSamples(a.Host.ID, n.Host.ID, 4, rng)
				if err != nil {
					continue
				}
				est := cal.MaxDistanceKm(a.Host.ID, geo.OneWayMs(rtt))
				ratios = append(ratios, est/d)
			}
		}
		res.CrossMedianRatio[f.name] = median(ratios)
		res.Pairs[f.name] = len(ratios)
	}
	return res, nil
}

func buildForeign(l *Lab, name string, accessMin, accessMax float64, rng *rand.Rand) ([]*atlas.Landmark, error) {
	if lms, ok := l.foreign[name]; ok {
		return lms, nil
	}
	n := l.Cfg.Anchors / 3
	if n < 10 {
		n = 10
	}
	cons, err := atlas.Build(l.Net, atlas.Config{
		Anchors:           n,
		Probes:            0,
		SamplesPerPair:    1,
		Name:              name,
		AnchorAccessMinMs: accessMin,
		AnchorAccessMaxMs: accessMax,
	}, rng)
	if err != nil {
		return nil, err
	}
	if l.foreign == nil {
		l.foreign = map[string][]*atlas.Landmark{}
	}
	l.foreign[name] = cons.Anchors()
	return l.foreign[name], nil
}

func median(xs []float64) float64 { return mathx.Quantile(xs, 0.5) }

// Render formats the result.
func (r *ExtConstellationsResult) Render() string {
	return fmt.Sprintf(
		"Ext §8.1 constellations | bestline est/true median: within RIPE %.2f (%d pairs), vs Ark %.2f (%d), vs PlanetLab %.2f (%d) — ratios >within quantify anchor-subnet overestimation",
		r.WithinMedianRatio, r.Pairs["ripe"],
		r.CrossMedianRatio["ark"], r.Pairs["ark"],
		r.CrossMedianRatio["planetlab"], r.Pairs["planetlab"])
}

// ExtAdversaryResult quantifies the §8 threat: a hostile proxy forging
// RTTs to appear at a decoy location.
type ExtAdversaryResult struct {
	TrueLoc  geo.Point
	DecoyLoc geo.Point
	// Honest/CBGpp: centroid distance to truth without manipulation.
	HonestMissKm float64
	// Forged*: centroid distance to the *decoy* under attack — small
	// values mean the attack succeeded.
	ForgedCBGppToDecoyKm   float64
	ForgedSpotterToDecoyKm float64
	// CBGppCoversTruth reports whether the forged CBG++ region still
	// contains the true location (it should not, if the attack works).
	CBGppCoversTruth bool
}

// ExtAdversary arms a one-proxy decoy plan against the fleet's first
// server, measures it honestly and under attack through the same
// two-phase pipeline, and locates the forged measurements with CBG++
// and Spotter. Both runs draw from identically seeded streams, so the
// attack is the only difference between them.
func (l *Lab) ExtAdversary() (*ExtAdversaryResult, error) {
	s := l.Fleet.Servers()[0]
	trueLoc := s.Host.Loc
	plan := &measure.AdversaryPlan{Seed: l.Cfg.Seed, Attack: measure.AttackDecoy, ProxyFraction: 1}
	decoy := plan.DecoyFor(s.Host.ID, trueLoc)

	honest, err := measure.ProxiedTwoPhase(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, l.rng(84))
	if err != nil {
		return nil, err
	}
	honestRegion, err := l.CBGpp.Locate(honest.Measurements())
	if err != nil {
		return nil, err
	}
	hc, _ := honestRegion.Centroid()

	forged, err := measure.ProxiedTwoPhaseAdversarial(l.Cons, l.Client, s.Host.ID, measure.DefaultEta, measure.Policy{}, plan, l.rng(84))
	if err != nil {
		return nil, err
	}
	forgedMs := forged.Measurements()
	forgedCBGpp, err := l.CBGpp.Locate(forgedMs)
	if err != nil {
		return nil, err
	}
	fc, _ := forgedCBGpp.Centroid()
	forgedSpotter, err := l.Spotter.Locate(forgedMs)
	if err != nil {
		return nil, err
	}
	sc, _ := forgedSpotter.Centroid()

	return &ExtAdversaryResult{
		TrueLoc:                trueLoc,
		DecoyLoc:               decoy,
		HonestMissKm:           geo.DistanceKm(hc, trueLoc),
		ForgedCBGppToDecoyKm:   geo.DistanceKm(fc, decoy),
		ForgedSpotterToDecoyKm: geo.DistanceKm(sc, decoy),
		CBGppCoversTruth:       forgedCBGpp.DistanceToPointKm(trueLoc) == 0,
	}, nil
}

// Render formats the result.
func (r *ExtAdversaryResult) Render() string {
	return fmt.Sprintf(
		"Ext §8 adversary | proxy truly at %v forging decoy %v: honest centroid %.0f km from truth; forged centroids land %.0f km (CBG++) / %.0f km (Spotter) from the DECOY; region still covers truth: %v",
		r.TrueLoc, r.DecoyLoc, r.HonestMissKm, r.ForgedCBGppToDecoyKm, r.ForgedSpotterToDecoyKm, r.CBGppCoversTruth)
}
