// Package netsim is the library's stand-in for the real Internet: a
// deterministic, seeded, world-scale network delay simulator.
//
// The geolocation algorithms consume only (distance, delay) calibration
// scatter and per-target RTT vectors, so the simulator's job is to
// reproduce the statistical shape of Internet round-trip times that the
// paper reports rather than any particular router topology:
//
//   - a hard physical floor — packets never travel faster than 200 km/ms
//     round trip (2/3 c in fiber);
//   - per-path "circuitousness": cables follow practical paths, and
//     routes are optimized for bandwidth rather than latency, adding a
//     path-specific multiplicative detour that persists between
//     measurements of the same pair;
//   - last-mile access delay per host (small for anchors in data centers,
//     larger for residential probes);
//   - queueing jitter and occasional large congestion spikes, heavier in
//     regions the paper calls out (China, parts of Africa, remote
//     islands), which is what breaks minimum-speed assumptions there;
//   - hub routing for sparsely connected territories: neighboring islands
//     are often connected only through a distant developed hub, which is
//     the paper's explanation for the odd long-distance confusions in its
//     Figure 23.
//
// All randomness is split in two: path properties are derived
// deterministically from the simulator seed and the host pair (stable
// across calls), while per-measurement noise comes from the caller's
// *rand.Rand so experiments can be replayed. NewRand builds such a
// stream: math/rand's own generator, draw for draw, with a faster exact
// seeding (rand.go).
//
// Measurement takes no lock for the network's conditions. Congestion
// episodes and the fault configuration form an immutable snapshot that
// writers (StartCongestion, its stop handle, SetFaults) copy and swap
// under the network's mutex and that every sample and probe loads
// once. Hosts stay under the read lock, since AddHost and RemoveHost
// churn; AddHost records each host's connectivity grade and, for an
// island, its nearest hub, so a path profile computes only what
// depends on the pair.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"activegeo/internal/geo"
	"activegeo/internal/worldmap"
)

// HostID identifies a host within one Network.
type HostID string

// Host is a simulated Internet host.
type Host struct {
	ID      HostID
	Addr    string // synthetic IPv4 address, for display and /24 grouping
	Loc     geo.Point
	Country string // ISO code; derived from Loc if empty at AddHost time

	ASN        int    // autonomous system number
	Prefix24   string // first three octets of Addr, e.g. "198.51.100"
	DataCenter string // data-center ID, "" if not in a known DC

	// Behavioral flags, mirroring §4.2's observations about proxies.
	BlocksICMP        bool // ignores ping
	DropsTimeExceeded bool // discards TTL-exceeded; no traceroute through it
	FilteredPorts     map[int]bool
	ListensHTTP       bool // TCP port 80 open (affects the web tool's 1-vs-2 RTT)

	// AccessDelayMs is the host's last-mile one-way delay contribution.
	AccessDelayMs float64
}

// Quality grades a territory's connectivity, controlling route inflation
// and congestion in the delay model.
type Quality int

// Connectivity grades.
const (
	QualityGood   Quality = iota // dense, competitive networks: EU, NA, developed Asia-Pacific
	QualityMedium                // moderately connected
	QualityPoor                  // sparse or congested: the paper's "moderately connected" regions
	QualityIsland                // reachable mainly through a remote hub
)

// wanOverheadMs is the fixed round-trip cost of leaving the metro area
// (provider edges, exchange points, serialization).
const wanOverheadMs = 3.0

// Errors returned by measurement primitives.
var (
	ErrUnknownHost     = errors.New("netsim: unknown host")
	ErrICMPBlocked     = errors.New("netsim: host ignores ICMP echo")
	ErrPortFiltered    = errors.New("netsim: destination port filtered")
	ErrNoTraceroute    = errors.New("netsim: time-exceeded packets dropped")
	ErrConnectionReset = errors.New("netsim: connection reset by intermediate router")
)

// Network is a simulated Internet.
type Network struct {
	seed int64

	// hubs are the well-connected exchange points used for hub routing.
	hubs []geo.Point

	// state holds the congestion episodes and the fault configuration
	// that every sample and probe reads. It is an immutable snapshot:
	// writers copy it, edit the copy and swap the pointer under mu, so
	// readers load it once and never take a lock or write a shared
	// counter. New stores the first, empty one.
	state atomic.Pointer[netState]

	// The fields above are read on every sample. Every Path writes mu's
	// reader count, so the pad keeps that write off their cache line.
	_ [64]byte

	// mu guards hosts and serializes the writers of state.
	mu    sync.RWMutex
	hosts map[HostID]hostEntry
}

// netState is one published snapshot of a Network's mutable
// conditions. It is never modified after it is stored.
type netState struct {
	// episodes are the active congestion episodes in start order; each
	// is identified by its pointer, which its stop handle removes.
	episodes []*CongestionEpisode
	// faults is the fault-injection configuration (zero = disabled);
	// see faults.go.
	faults FaultConfig
}

// hostEntry is the network's record of a registered host: the caller's
// Host plus the per-host inputs to every path profile, computed once by
// AddHost. Nothing in the module edits a Host's Country or Loc after
// AddHost, and a Path's profile does not follow later edits anyway.
type hostEntry struct {
	*Host
	quality Quality
	// hub is the nearest exchange point, set only for QualityIsland
	// hosts: the only endpoints whose hub a profile reads.
	hub geo.Point
}

// CongestionEpisode is a transient regional overload: every path with
// an endpoint inside the area gets extra queueing. Komosny et al. (the
// paper's [28]) identify exactly this — congestion near a landmark
// during calibration — as the cause of bestline underestimation that
// CBG++'s baseline filter exists to catch.
type CongestionEpisode struct {
	Area geo.Cap
	// ExtraJitterMeanMs is added to the path's mean queueing jitter.
	ExtraJitterMeanMs float64
	// ExtraBaseMs is a standing queue: added to every affected sample.
	ExtraBaseMs float64
}

// StartCongestion activates an episode and returns a handle to stop it.
// Samples already in flight finish under the snapshot they loaded.
func (n *Network) StartCongestion(ep CongestionEpisode) (stop func()) {
	live := &ep
	n.mu.Lock()
	n.publish(func(s *netState) { s.episodes = append(s.episodes, live) })
	n.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			// The survivors keep their start order, so every sum over
			// them adds in the same order as before the stop.
			n.publish(func(s *netState) {
				s.episodes = slices.DeleteFunc(s.episodes, func(e *CongestionEpisode) bool { return e == live })
			})
		})
	}
}

// publish stores a copy of the current snapshot changed by edit, which
// may append to or delete from its own copy of the episodes. The caller
// holds n.mu, so no write is lost between the load and the store.
func (n *Network) publish(edit func(*netState)) {
	next := *n.state.Load()
	next.episodes = slices.Clone(next.episodes)
	edit(&next)
	n.state.Store(&next)
}

// congestionFor sums the episodes touching either endpoint.
func (s *netState) congestionFor(a, b *Host) (extraBase, extraJitter float64) {
	for _, ep := range s.episodes {
		if ep.Area.RadiusKm <= 0 {
			continue
		}
		if ep.Area.Contains(a.Loc) || ep.Area.Contains(b.Loc) {
			extraBase += ep.ExtraBaseMs
			extraJitter += ep.ExtraJitterMeanMs
		}
	}
	return extraBase, extraJitter
}

// New creates an empty network with the given seed. The seed fixes all
// per-path properties; two networks with the same seed and hosts produce
// identical base delays.
func New(seed int64) *Network {
	n := &Network{
		seed:  seed,
		hosts: make(map[HostID]hostEntry),
		hubs: []geo.Point{
			{Lat: 50.11, Lon: 8.68},    // Frankfurt
			{Lat: 52.37, Lon: 4.89},    // Amsterdam
			{Lat: 51.51, Lon: -0.13},   // London
			{Lat: 38.91, Lon: -77.04},  // Washington/Ashburn
			{Lat: 37.44, Lon: -122.16}, // Palo Alto
			{Lat: 1.35, Lon: 103.82},   // Singapore
			{Lat: 35.68, Lon: 139.65},  // Tokyo
			{Lat: -33.87, Lon: 151.21}, // Sydney
			{Lat: -23.55, Lon: -46.63}, // São Paulo
			{Lat: 25.20, Lon: 55.27},   // Dubai
			{Lat: -26.20, Lon: 28.05},  // Johannesburg
		},
	}
	n.state.Store(&netState{})
	return n
}

// Seed returns the network's seed.
func (n *Network) Seed() int64 { return n.seed }

// AddHost registers h. The country is derived from the location when not
// set. AddHost fails on duplicate or empty IDs.
func (n *Network) AddHost(h *Host) error {
	if h.ID == "" {
		return errors.New("netsim: empty host ID")
	}
	if !h.Loc.Valid() {
		return fmt.Errorf("netsim: host %s has invalid location %v", h.ID, h.Loc)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[h.ID]; dup {
		return fmt.Errorf("netsim: duplicate host %s", h.ID)
	}
	if h.Country == "" {
		if c := worldmap.Locate(h.Loc); c != nil {
			h.Country = c.Code
		}
	}
	if h.AccessDelayMs == 0 {
		h.AccessDelayMs = 1.0
	}
	e := hostEntry{Host: h, quality: countryQuality(h.Country)}
	if e.quality == QualityIsland {
		e.hub = n.nearestHub(h.Loc)
	}
	n.hosts[h.ID] = e
	return nil
}

// RemoveHost deregisters the host with the given ID and reports whether
// it existed. Paths are stateless (derived from host IDs and the network
// seed), so removal needs no teardown beyond the map delete. The
// streaming audit's synthetic sources use this to provision hosts per
// batch and release them afterwards, keeping the network O(batch) rather
// than O(fleet); callers must not remove a host with measurements still
// in flight.
func (n *Network) RemoveHost(id HostID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[id]; !ok {
		return false
	}
	delete(n.hosts, id)
	return true
}

// Host returns the host with the given ID, or nil.
func (n *Network) Host(id HostID) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[id].Host
}

// Hosts returns all hosts sorted by ID.
func (n *Network) Hosts() []*Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Host, 0, len(n.hosts))
	for _, e := range n.hosts {
		out = append(out, e.Host)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// countryQuality returns the connectivity grade of a country code.
func countryQuality(code string) Quality {
	switch code {
	case "cn":
		// The paper (§2) singles out China: heavy congestion at
		// intermediate routers invalidates minimum-speed assumptions.
		return QualityPoor
	case "jp", "kr", "sg", "hk", "tw", "au", "nz":
		return QualityGood
	case "pn", "nf", "ki", "fm", "mh", "nr", "pw", "sb", "vu", "fj", "nc",
		"gu", "mp", "io", "cx", "xa", "tl", "pg", "mv", "fk", "gl", "pm",
		"sc", "km", "mu", "cv", "fo":
		return QualityIsland
	}
	c := worldmap.ByCode(code)
	if c == nil {
		return QualityMedium
	}
	switch c.Continent {
	case worldmap.Europe, worldmap.NorthAmerica:
		return QualityGood
	case worldmap.Africa:
		return QualityPoor
	case worldmap.Asia, worldmap.Oceania:
		return QualityMedium
	case worldmap.CentralAmerica, worldmap.SouthAmerica:
		return QualityMedium
	case worldmap.Australia:
		return QualityGood
	default:
		return QualityMedium
	}
}

// pathProfile captures the deterministic properties of one host pair.
type pathProfile struct {
	gcKm        float64 // great-circle distance between the endpoints
	distKm      float64 // effective routed distance (may include hub detour)
	inflation   float64 // multiplicative detour factor ≥ 1.15
	jitterMean  float64 // mean of exponential queueing jitter, ms
	spikeProb   float64 // probability of a large congestion spike
	spikeMean   float64 // mean size of a spike, ms
	lossProb    float64 // per-packet loss probability
	accessDelay float64 // summed last-mile delay of both endpoints, ms (round trip)
}

// profile computes the deterministic path profile for a pair of hosts.
// Only the pair's own work happens here, its distance and its hash; the
// endpoints' qualities and hubs were computed by AddHost.
func (n *Network) profile(a, b *hostEntry) pathProfile {
	d := geo.DistanceKm(a.Loc, b.Loc)
	qa, qb := a.quality, b.quality

	// Hub routing: island or poorly connected territories in different
	// countries reach each other through the nearest hub, inflating the
	// effective routed distance — possibly enormously for neighbors.
	// The route goes via the asking end's hub when it is an island, else
	// via the other end's.
	eff := d
	if a.Country != b.Country && (qa == QualityIsland || qb == QualityIsland) {
		hub := a.hub
		if qa != QualityIsland {
			hub = b.hub
		}
		viaHub := geo.DistanceKm(a.Loc, hub) + geo.DistanceKm(hub, b.Loc)
		if viaHub > eff {
			eff = viaHub
		}
	}

	// Deterministic per-pair randomness.
	u1, u2 := n.pairUniforms(a.ID, b.ID)

	// Route inflation: base by worst quality, plus a lognormal-ish tail.
	worst := qa
	if qb > worst {
		worst = qb
	}
	var base, spread float64
	switch worst {
	case QualityGood:
		// Dense competitive networks route consistently: inflation
		// clusters tightly, which is what makes sophisticated models
		// viable in Europe and North America (§2).
		base, spread = 1.17, 0.18
	case QualityMedium:
		base, spread = 1.40, 0.70
	case QualityPoor:
		base, spread = 1.60, 1.10
	default: // QualityIsland
		base, spread = 1.50, 0.90
	}
	inflation := base + spread*u1*u1 // quadratic: most paths near base, a tail of detours

	// Queueing characteristics by the more congested endpoint.
	var jitterMean, spikeProb, spikeMean, lossProb float64
	switch worst {
	case QualityGood:
		jitterMean, spikeProb, spikeMean, lossProb = 2, 0.01, 60, 0.001
	case QualityMedium:
		jitterMean, spikeProb, spikeMean, lossProb = 8, 0.03, 120, 0.005
	case QualityPoor:
		jitterMean, spikeProb, spikeMean, lossProb = 25, 0.08, 250, 0.02
	default:
		jitterMean, spikeProb, spikeMean, lossProb = 15, 0.05, 180, 0.015
	}
	// Per-pair variation in jitter (some paths are chronically congested).
	jitterMean *= 0.5 + 1.5*u2

	return pathProfile{
		gcKm:        d,
		distKm:      eff,
		inflation:   inflation,
		jitterMean:  jitterMean,
		spikeProb:   spikeProb,
		spikeMean:   spikeMean,
		lossProb:    lossProb,
		accessDelay: 2 * (a.AccessDelayMs + b.AccessDelayMs),
	}
}

// nearestHub returns the hub closest to p.
func (n *Network) nearestHub(p geo.Point) geo.Point {
	best := n.hubs[0]
	bd := geo.DistanceKm(p, best)
	for _, h := range n.hubs[1:] {
		if d := geo.DistanceKm(p, h); d < bd {
			best, bd = h, d
		}
	}
	return best
}

// HashID returns a stable FNV-1a hash of an ID string. It is the single
// ID-hash helper shared by the simulator's per-pair path properties and
// the measurement layer's per-proxy random streams: deriving a stream
// seed as baseSeed ^ HashID(id) makes the stream a pure function of the
// (seed, id) pair, independent of iteration and scheduling order.
func HashID(id HostID) uint64 {
	return uint64(NewKeyHash().Str(string(id)))
}

// pairUniforms derives two deterministic uniforms in [0,1) from the seed
// and the unordered host pair: the first two draws of a generator seeded
// with the hash of "seed|a|b" (see hashdraw.go).
func (n *Network) pairUniforms(a, b HostID) (float64, float64) {
	if b < a {
		a, b = b, a
	}
	h := NewKeyHash().Int(n.seed).Str("|").Str(string(a)).Str("|").Str(string(b))
	u := SeedFloat64s(int64(h), 2)
	return u[0], u[1]
}

// selfRTTMs is the round-trip time from a host to itself.
const selfRTTMs = 0.1

// baseRTT is BaseRTTMs for the profiled pair of distinct hosts.
func (p *pathProfile) baseRTT() float64 {
	floor := 2 * p.gcKm / geo.BaselineSpeedKmPerMs
	rtt := 2*p.distKm*p.inflation/geo.BaselineSpeedKmPerMs + p.accessDelay
	// Paths that leave the metro area cross provider edges and exchange
	// points: a distance-independent routing overhead that intra-data-
	// center traffic never pays. This is what separates the sub-5 ms
	// same-LAN RTTs (§8.1's co-location heuristic) from even the
	// shortest inter-city paths.
	if p.gcKm > 50 {
		rtt += wanOverheadMs
	}
	if rtt < floor {
		rtt = floor
	}
	return rtt
}

// BaseRTTMs returns the minimum (uncongested) round-trip time between two
// hosts in milliseconds: propagation along the inflated path plus access
// delays, never below the physical floor.
func (n *Network) BaseRTTMs(a, b HostID) (float64, error) {
	p := n.Path(a, b)
	return p.BaseRTTMs()
}

// SampleRTTMs returns one measured round-trip time: the base RTT plus
// queueing jitter and occasional congestion spikes drawn from rng.
func (n *Network) SampleRTTMs(a, b HostID, rng *rand.Rand) (float64, error) {
	p := n.Path(a, b)
	return p.SampleRTTMs(rng)
}

// Ping performs an ICMP echo round trip. It fails if the destination
// blocks ICMP (≈90% of the VPN servers in the paper do).
func (n *Network) Ping(from, to HostID, rng *rand.Rand) (float64, error) {
	p := n.Path(from, to)
	if p.dst == nil {
		return 0, ErrUnknownHost
	}
	if p.dst.BlocksICMP {
		return 0, ErrICMPBlocked
	}
	return p.SampleRTTMs(rng)
}

// synRetransmitMs is the initial TCP SYN retransmission timeout; it
// doubles on every further loss.
const synRetransmitMs = 1000.0

// maxSynRetries bounds handshake retransmissions before the connection
// attempt fails outright.
const maxSynRetries = 3

// ErrTimeout is returned when every handshake packet is lost.
var ErrTimeout = errors.New("netsim: connection timed out")

// TCPConnect measures the time for a TCP three-way handshake's first
// round trip (SYN → SYN-ACK or RST), the primitive both of the paper's
// measurement tools rely on. It fails if the destination filters the
// port. Packet loss triggers SYN retransmissions: the handshake still
// completes, but the measured time includes the retransmission
// timeout — one source of the "high outlier" observations real tools
// must cope with.
func (n *Network) TCPConnect(from, to HostID, port int, rng *rand.Rand) (float64, error) {
	p := n.Path(from, to)
	return p.connect(p.n.state.Load(), port, rng)
}

// CanTraceroute reports whether time-exceeded-based route tracing through
// the host is possible.
func (n *Network) CanTraceroute(through HostID) (bool, error) {
	n.mu.RLock()
	h := n.hosts[through].Host
	n.mu.RUnlock()
	if h == nil {
		return false, ErrUnknownHost
	}
	return !h.DropsTimeExceeded, nil
}

// MinOfSamples takes k RTT samples and returns the minimum, the standard
// way measurement tools suppress queueing noise.
func (n *Network) MinOfSamples(from, to HostID, k int, rng *rand.Rand) (float64, error) {
	p := n.Path(from, to)
	best, err := p.SampleRTTMs(rng)
	if err != nil {
		return 0, err
	}
	for i := 1; i < k; i++ {
		// A path that sampled once samples again: err is always nil.
		if v, _ := p.SampleRTTMs(rng); v < best {
			best = v
		}
	}
	return best, nil
}
