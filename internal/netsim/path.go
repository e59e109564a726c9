package netsim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Path is one directed measurement leg, resolved once: both hosts are
// looked up under one read lock and, for two distinct known hosts, the
// pair's path profile is computed once from the per-host values AddHost
// recorded. Every attempt of a measurement then reuses it, and draws
// exactly what the by-ID primitive would draw: each sample loads the
// network's current snapshot of congestion episodes without locking,
// each Probe loads one snapshot of the fault configuration and episodes
// for the whole probe, and an unknown host fails at the same call with
// the same error.
//
// A Path lives for one measurement. It does not see RemoveHost, its
// profile does not follow later edits to either host, and it is not a
// cache: the by-ID methods resolve a fresh Path on every call.
type Path struct {
	n        *Network
	from, to HostID
	src, dst *Host // nil when unknown
	// prof and base hold the pair's profile and uncongested RTT; they
	// are set only when src and dst are distinct known hosts.
	prof pathProfile
	base float64
}

// Path resolves the directed leg from → to.
func (n *Network) Path(from, to HostID) Path {
	n.mu.RLock()
	src, dst := n.hosts[from], n.hosts[to]
	n.mu.RUnlock()
	p := Path{n: n, from: from, to: to, src: src.Host, dst: dst.Host}
	if p.src != nil && p.dst != nil && p.src != p.dst {
		p.prof = n.profile(&src, &dst)
		p.base = p.prof.baseRTT()
	}
	return p
}

// ListensHTTP reports whether the path's destination host listens on
// TCP port 80 (false when it is unknown).
func (p *Path) ListensHTTP() bool { return p.dst != nil && p.dst.ListensHTTP }

// BaseRTTMs is Network.BaseRTTMs for the path's hosts.
func (p *Path) BaseRTTMs() (float64, error) {
	if p.src == nil || p.dst == nil {
		return 0, ErrUnknownHost
	}
	if p.src == p.dst {
		return selfRTTMs, nil
	}
	return p.base, nil
}

// SampleRTTMs is Network.SampleRTTMs for the path's hosts.
func (p *Path) SampleRTTMs(rng *rand.Rand) (float64, error) {
	if p.src == nil || p.dst == nil {
		return 0, ErrUnknownHost
	}
	if p.src == p.dst {
		return selfRTTMs, nil
	}
	return p.sample(p.n.state.Load(), rng), nil
}

// sample draws one RTT of a path between distinct known hosts under
// the congestion episodes of st.
func (p *Path) sample(st *netState, rng *rand.Rand) float64 {
	extraBase, extraJitter := st.congestionFor(p.src, p.dst)
	rtt := p.base + extraBase + rng.ExpFloat64()*(p.prof.jitterMean+extraJitter)
	if rng.Float64() < p.prof.spikeProb {
		rtt += rng.ExpFloat64() * p.prof.spikeMean
	}
	return rtt
}

// connect is Network.TCPConnect for the path's hosts, sampled under st.
func (p *Path) connect(st *netState, port int, rng *rand.Rand) (float64, error) {
	if p.src == nil || p.dst == nil {
		return 0, ErrUnknownHost
	}
	if p.dst.FilteredPorts[port] {
		return 0, ErrPortFiltered
	}
	if p.src == p.dst {
		return selfRTTMs, nil
	}
	var penalty, timeout float64 = 0, synRetransmitMs
	for try := 0; try <= maxSynRetries; try++ {
		if rng.Float64() >= p.prof.lossProb {
			return p.sample(st, rng) + penalty, nil
		}
		penalty += timeout
		timeout *= 2
	}
	return 0, ErrTimeout
}

// Probe is Network.Probe for the path's hosts: one snapshot of the
// fault configuration and the congestion episodes judges the whole
// probe, even while SetFaults or StartCongestion changes the network.
func (p *Path) Probe(port int, rng *rand.Rand, clk *Clock) (float64, error) {
	st := p.n.state.Load()
	cfg := st.faults
	if at := clk.NowMs(); p.n.down(cfg, p.to, at) {
		clk.Advance(LostProbeTimeoutMs)
		return 0, fmt.Errorf("%s at t=%.0fms: %w", p.to, at, ErrHostOutage)
	}
	if cfg.ProbeLoss > 0 && rng.Float64() < cfg.ProbeLoss {
		clk.Advance(LostProbeTimeoutMs)
		return 0, fmt.Errorf("%s→%s: %w", p.from, p.to, ErrProbeLost)
	}
	rtt, err := p.connect(st, port, rng)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			// A full SYN-retransmission cycle ran before the give-up:
			// 1s + 2s + … doubling once per allowed retry.
			clk.Advance(synRetransmitMs * ((1 << (maxSynRetries + 1)) - 1))
		}
		return 0, err
	}
	if cfg.SpikeProb > 0 && rng.Float64() < cfg.SpikeProb {
		rtt += rng.ExpFloat64() * cfg.spikeMean()
	}
	clk.Advance(rtt)
	return rtt, nil
}
