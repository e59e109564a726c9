// Package atlas builds and maintains the landmark constellation — the
// library's substitute for RIPE Atlas. It places "anchor" hosts (always
// on, well connected, accurately located) and "probe" hosts (more
// numerous, residential) into a netsim.Network with the geographic skew
// of the real constellation, runs the continuous inter-anchor ping mesh,
// and exposes per-landmark delay–distance calibration data, refreshed the
// way the paper's measurement server refreshes its models daily from the
// most recent two weeks of RIPE measurements.
package atlas

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"activegeo/internal/geo"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// Landmark is a host in a known location usable for multilateration.
type Landmark struct {
	Host     *netsim.Host
	IsAnchor bool
}

// Config controls constellation construction.
type Config struct {
	Anchors int // number of anchors (the paper had 207→250 usable)
	Probes  int // number of stable probes used as extra landmarks

	// SamplesPerPair is how many mesh pings each anchor pair exchanges
	// per calibration window.
	SamplesPerPair int

	// Name prefixes host IDs, so several constellations can coexist in
	// one network (the §8.1 multi-constellation study). Empty means the
	// default "anchor"/"probe" prefixes.
	Name string

	// AnchorAccessMinMs/AnchorAccessMaxMs bound the anchors' last-mile
	// delay. RIPE anchors sit on stable, lightly loaded subnets
	// (default 0.5–2 ms); PlanetLab nodes enjoy academic connectivity
	// (§2 notes the "unfair advantage"); Ark monitors are mixed.
	AnchorAccessMinMs float64
	AnchorAccessMaxMs float64
}

// DefaultConfig matches the paper's scale.
func DefaultConfig() Config {
	return Config{Anchors: 250, Probes: 800, SamplesPerPair: 4}
}

// PairSample is one anchor pair's calibration data: every RTT sample
// from the mesh window, plus the pair's true distance.
type PairSample struct {
	Peer   netsim.HostID
	DistKm float64
	RTTms  []float64 // all mesh samples, unsorted
}

// MinRTTms returns the pair's fastest observation.
func (p PairSample) MinRTTms() float64 {
	best := p.RTTms[0]
	for _, v := range p.RTTms[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// Constellation is a built landmark set plus its calibration mesh.
type Constellation struct {
	net     *netsim.Network
	anchors []*Landmark
	probes  []*Landmark
	byID    map[netsim.HostID]*Landmark

	// calib maps an anchor to its per-peer mesh samples. The full
	// sample set — including the congested tail — is what Octant and
	// Spotter calibrate on; CBG's bestline only sees the envelope
	// anyway.
	calib map[netsim.HostID][]PairSample

	// epoch counts landmark-set and calibration generations: it is
	// bumped by Decommission, AddAnchors and RefreshCalibration, so
	// incremental consumers (the streaming audit) can detect that a
	// verdict predates the current constellation. Atomic because churn
	// may be applied from a pipeline callback while a feeder goroutine
	// reads the epoch to stamp dependency signatures.
	epoch atomic.Uint64

	// byCont is the landmark set grouped by continent, in All's order,
	// and anchorsByCont its anchors alone: Select's pools, rebuilt by
	// regroup wherever the landmark set changes.
	byCont        map[worldmap.Continent][]*Landmark
	anchorsByCont map[worldmap.Continent][]*Landmark

	// anchorSeq numbers anchors minted by AddAnchors. A monotonic
	// counter — never an rng draw — so churned-in anchor IDs are unique
	// for the constellation's lifetime.
	anchorSeq int
}

// Epoch returns the constellation's churn/calibration generation. Two
// reads returning the same value bracket a window with no landmark-set
// or calibration changes.
func (c *Constellation) Epoch() uint64 { return c.epoch.Load() }

// Build creates the constellation inside net. All anchor/probe placement
// randomness comes from rng, so builds are reproducible.
func Build(net *netsim.Network, cfg Config, rng *rand.Rand) (*Constellation, error) {
	if cfg.Anchors < 8 {
		return nil, fmt.Errorf("atlas: need at least 8 anchors, got %d", cfg.Anchors)
	}
	if cfg.SamplesPerPair < 1 {
		cfg.SamplesPerPair = 1
	}
	c := &Constellation{
		net:   net,
		byID:  make(map[netsim.HostID]*Landmark),
		calib: make(map[netsim.HostID][]PairSample),
	}

	byContinent := map[string][]City{}
	for _, city := range cities {
		cont := continentOf(city.Country)
		byContinent[cont] = append(byContinent[cont], city)
	}
	conts := make([]string, 0, len(byContinent))
	for k := range byContinent {
		conts = append(conts, k)
	}
	sort.Strings(conts)

	accessMin, accessMax := cfg.AnchorAccessMinMs, cfg.AnchorAccessMaxMs
	if accessMin <= 0 {
		accessMin = 0.5
	}
	if accessMax <= accessMin {
		accessMax = accessMin + 1.5
	}
	place := func(kind string, idx int, anchor bool) error {
		if cfg.Name != "" {
			kind = cfg.Name + "-" + kind
		}
		cont := pickContinent(rng, conts)
		cs := byContinent[cont]
		city := cs[rng.Intn(len(cs))]
		// Scatter within ~30 km of the city center.
		brg := rng.Float64() * 360
		dist := rng.Float64() * 30
		loc := geo.DestinationPoint(geo.Point{Lat: city.Lat, Lon: city.Lon}, brg, dist)
		access := accessMin + rng.Float64()*(accessMax-accessMin)
		if !anchor {
			access = 2 + rng.ExpFloat64()*8 // probes: residential
		}
		h := &netsim.Host{
			ID:            netsim.HostID(fmt.Sprintf("%s-%04d", kind, idx)),
			Addr:          fmt.Sprintf("192.%d.%d.%d", 1+idx/65536, (idx/256)%256, idx%256),
			Loc:           loc,
			Country:       city.Country,
			AccessDelayMs: access,
			ListensHTTP:   rng.Float64() < 0.5, // §4.2: depends on node software version
		}
		if err := net.AddHost(h); err != nil {
			return err
		}
		lm := &Landmark{Host: h, IsAnchor: anchor}
		if anchor {
			c.anchors = append(c.anchors, lm)
		} else {
			c.probes = append(c.probes, lm)
		}
		c.byID[h.ID] = lm
		return nil
	}

	for i := 0; i < cfg.Anchors; i++ {
		if err := place("anchor", i, true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Probes; i++ {
		if err := place("probe", i, false); err != nil {
			return nil, err
		}
	}
	c.regroup()
	c.RefreshCalibration(cfg.SamplesPerPair, rng)
	return c, nil
}

// pickContinent draws a continent according to the anchor weights.
func pickContinent(rng *rand.Rand, conts []string) string {
	var total float64
	for _, c := range conts {
		total += continentAnchorWeights[c]
	}
	x := rng.Float64() * total
	for _, c := range conts {
		x -= continentAnchorWeights[c]
		if x <= 0 {
			return c
		}
	}
	return conts[len(conts)-1]
}

func continentOf(code string) string {
	if c := worldmap.ByCode(code); c != nil {
		return c.Continent.String()
	}
	return "Europe"
}

// RefreshCalibration reruns the anchor mesh: every anchor takes k RTT
// samples to every other anchor. All samples are kept — the congested
// tail included — mirroring the paper's use of "the most recent two
// weeks of ping measurements" rather than just the minimum.
func (c *Constellation) RefreshCalibration(samplesPerPair int, rng *rand.Rand) {
	if samplesPerPair < 1 {
		samplesPerPair = 1
	}
	c.epoch.Add(1)
	for id := range c.calib {
		delete(c.calib, id)
	}
	for _, a := range c.anchors {
		pairs := make([]PairSample, 0, len(c.anchors)-1)
		for _, b := range c.anchors {
			if a == b {
				continue
			}
			ps := PairSample{
				Peer:   b.Host.ID,
				DistKm: geo.DistanceKm(a.Host.Loc, b.Host.Loc),
			}
			path := c.net.Path(a.Host.ID, b.Host.ID)
			for i := 0; i < samplesPerPair; i++ {
				rtt, err := path.SampleRTTMs(rng)
				if err != nil {
					continue
				}
				ps.RTTms = append(ps.RTTms, rtt)
			}
			if len(ps.RTTms) > 0 {
				pairs = append(pairs, ps)
			}
		}
		c.calib[a.Host.ID] = pairs
	}
}

// Net returns the underlying network.
func (c *Constellation) Net() *netsim.Network { return c.net }

// Anchors returns the anchor landmarks.
func (c *Constellation) Anchors() []*Landmark { return c.anchors }

// Probes returns the stable-probe landmarks.
func (c *Constellation) Probes() []*Landmark { return c.probes }

// All returns anchors followed by probes.
func (c *Constellation) All() []*Landmark {
	out := make([]*Landmark, 0, len(c.anchors)+len(c.probes))
	out = append(out, c.anchors...)
	out = append(out, c.probes...)
	return out
}

// Landmark returns the landmark with the given host ID, or nil.
func (c *Constellation) Landmark(id netsim.HostID) *Landmark { return c.byID[id] }

// CalibrationPairs returns the per-peer mesh data for the given anchor.
// Probes have no mesh data and return nil.
func (c *Constellation) CalibrationPairs(id netsim.HostID) []PairSample {
	return c.calib[id]
}

// Calibration returns the anchor's mesh as a flat (distance km, RTT ms)
// scatter, one point per sample. Probes return nil, and algorithms then
// fall back to the pooled calibration (see Pooled).
func (c *Constellation) Calibration(id netsim.HostID) []mathx.XY {
	pairs := c.calib[id]
	if pairs == nil {
		return nil
	}
	var out []mathx.XY
	for _, p := range pairs {
		for _, rtt := range p.RTTms {
			out = append(out, mathx.XY{X: p.DistKm, Y: rtt})
		}
	}
	return out
}

// Pooled returns the union of all anchors' calibration samples — the
// landmark-landmark dataset Spotter fits its single global model to.
func (c *Constellation) Pooled() []mathx.XY {
	var out []mathx.XY
	ids := make([]string, 0, len(c.calib))
	for id := range c.calib {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, c.Calibration(netsim.HostID(id))...)
	}
	return out
}

// regroup recomputes Select's pools from All. It runs before the epoch
// bump that publishes a landmark-set change.
func (c *Constellation) regroup() {
	out := map[worldmap.Continent][]*Landmark{}
	anchors := map[worldmap.Continent][]*Landmark{}
	for _, lm := range c.All() {
		wc := worldmap.ByCode(lm.Host.Country)
		if wc == nil {
			continue
		}
		out[wc.Continent] = append(out[wc.Continent], lm)
		if lm.IsAnchor {
			anchors[wc.Continent] = append(anchors[wc.Continent], lm)
		}
	}
	c.byCont, c.anchorsByCont = out, anchors
}

// Phase names a two-phase draw's pool: Phase1 draws from a continent's
// anchors, Phase2 from all its landmarks (§4.1).
type Phase int

// The two phases.
const Phase1, Phase2 Phase = 1, 2

// Select is the two-phase selection rule that local campaigns and the
// coordination server both run: the first min(n, len(pool)) entries of
// rng.Perm over continent cont's anchors (Phase1) or all its landmarks
// (Phase2), in All's order. It draws exactly what rng.Perm draws, into
// one slice the caller owns.
func (c *Constellation) Select(ph Phase, cont worldmap.Continent, n int, rng *rand.Rand) []*Landmark {
	pool := c.byCont[cont]
	if ph == Phase1 {
		pool = c.anchorsByCont[cont]
	}
	// rng.Perm's loop (frozen by the Go 1 compatibility promise),
	// permuting landmarks instead of indices: out[k] = pool[perm[k]].
	out := make([]*Landmark, len(pool))
	for i := range out {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = pool[i]
	}
	return out[:min(n, len(out))]
}

// Draw is Select behind the landmark-source interface two-phase
// campaigns draw from (measure.Source); a local draw cannot fail.
func (c *Constellation) Draw(ph Phase, cont worldmap.Continent, n int, rng *rand.Rand) ([]*Landmark, error) {
	return c.Select(ph, cont, n, rng), nil
}
