package stream

import (
	"fmt"
	"math/rand"
	"sync"

	"activegeo/internal/datacenter"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// SynthSource generates an arbitrarily large synthetic proxy fleet
// without ever materializing it: each server's spec and host are pure
// functions of (seed, index), built on demand and registered in the
// network only for the lifetime of the batch measuring them (the
// Provisioner contract). This is how TestSynthSourceBoundedProvisioning
// proves the streaming audit's memory is O(batch): a 100k-server pass
// holds ~BatchSize hosts and regions at any instant.
type SynthSource struct {
	net  *netsim.Network
	n    int
	seed int64

	dcs     []datacenter.DC
	hosting []string

	mu      sync.Mutex
	live    int
	maxLive int
}

// NewSynthSource builds a generator for n servers over net.
func NewSynthSource(net *netsim.Network, n int, seed int64) *SynthSource {
	return &SynthSource{
		net:     net,
		n:       n,
		seed:    seed,
		dcs:     datacenter.All(),
		hosting: datacenter.HostingCountries(),
	}
}

// Len implements Source.
func (s *SynthSource) Len() int { return s.n }

// rngFor returns the deterministic stream of one server: independent of
// batch composition and pass order, like every other per-entity stream
// in the repo.
func (s *SynthSource) rngFor(i int) *rand.Rand {
	id := netsim.HostID(fmt.Sprintf("synth-%07d", i))
	return rand.New(rand.NewSource(s.seed ^ int64(netsim.HashID(id))))
}

// gen derives server i's spec and host in one draw sequence, so the
// advertised claim and the ground-truth placement stay consistent.
func (s *SynthSource) gen(i int) (ServerSpec, *netsim.Host) {
	rng := s.rngFor(i)
	dc := s.dcs[rng.Intn(len(s.dcs))]
	claimed := dc.Country
	if rng.Float64() >= 0.6 { // dishonest: claim some other hosting country
		claimed = s.hosting[rng.Intn(len(s.hosting))]
	}
	provider := fmt.Sprintf("S%d", i%4)
	asn := 70000 + rng.Intn(len(s.dcs))
	loc := geo.DestinationPoint(dc.Loc, rng.Float64()*360, rng.Float64()*15)
	spec := ServerSpec{
		ID:       netsim.HostID(fmt.Sprintf("synth-%07d", i)),
		Provider: provider,
		Claimed:  claimed,
		GroupKey: fmt.Sprintf("%s/AS%d/10.%d.%d", provider, asn, asn%250, i%16),
	}
	host := &netsim.Host{
		ID:            spec.ID,
		Addr:          fmt.Sprintf("10.%d.%d.%d", (i/65536)%250, (i/256)%250, i%250+1),
		Loc:           loc,
		Country:       dc.Country,
		ASN:           asn,
		DataCenter:    dc.ID,
		BlocksICMP:    rng.Float64() < 0.9,
		AccessDelayMs: 0.2 + rng.Float64()*0.3,
	}
	return spec, host
}

// Spec implements Source.
func (s *SynthSource) Spec(i int) ServerSpec {
	spec, _ := s.gen(i)
	return spec
}

// Provision implements Provisioner: registers the batch's hosts.
func (s *SynthSource) Provision(specs []ServerSpec) error {
	for _, spec := range specs {
		var idx int
		if _, err := fmt.Sscanf(string(spec.ID), "synth-%d", &idx); err != nil {
			return fmt.Errorf("stream: synth spec with foreign ID %q", spec.ID)
		}
		_, host := s.gen(idx)
		if err := s.net.AddHost(host); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.live += len(specs)
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
	s.mu.Unlock()
	return nil
}

// Release implements Provisioner: deregisters the batch's hosts.
func (s *SynthSource) Release(specs []ServerSpec) {
	for _, spec := range specs {
		s.net.RemoveHost(spec.ID)
	}
	s.mu.Lock()
	s.live -= len(specs)
	s.mu.Unlock()
}

// MaxLiveHosts reports the peak number of synthetic hosts registered at
// once — the structural bounded-memory witness (≈ QueueDepth+1 batches).
func (s *SynthSource) MaxLiveHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxLive
}
