package netsim

// Fault injection: seeded, deterministic per-path failure models layered
// on top of the delay simulator, reproducing the conditions the paper's
// world-scale measurement campaign actually faced (§2, §5): probes
// vanish, landmarks go dark for a while, proxies hang up mid-session,
// and congested paths inflate tails far beyond the queueing model.
//
// Determinism contract: everything structural (which hosts have outage
// windows, and when) is a pure function of (network seed, FaultConfig,
// host ID) via the same HashID stream derivation the rest of the
// simulator uses, and everything per-event (a lost probe, a tail spike,
// a session disconnect) draws from the caller's *rand.Rand — the
// per-entity stream seeded by measure.StreamSeed. Two runs with the
// same seed and the same FaultConfig are therefore byte-identical at
// any concurrency; with the zero FaultConfig the fault layer draws
// nothing and the simulator behaves exactly as before.

import (
	"errors"
	"math"
	"math/rand"
)

// FaultConfig parameterizes the fault-injection layer. The zero value
// disables every model; any positive field arms its model.
type FaultConfig struct {
	// ProbeLoss is an extra per-probe blackhole probability applied to
	// every Probe call on top of the path's natural SYN loss: the whole
	// handshake (all retransmissions) disappears and the prober gives
	// up after LostProbeTimeoutMs of simulated waiting.
	ProbeLoss float64

	// OutageFraction is the fraction of hosts that suffer one outage
	// window per campaign, during which every probe to them fails.
	// Which hosts, and when, is derived from the network seed and the
	// host ID — not from the measurement stream — so the same landmarks
	// are dark for every proxy in a run, like a real landmark going
	// offline mid-campaign.
	OutageFraction float64
	// OutageMeanMs is the mean outage duration in simulated
	// milliseconds (DefaultOutageMeanMs when 0).
	OutageMeanMs float64
	// HorizonMs is the campaign window within which outages start and
	// session disconnects occur (DefaultHorizonMs when 0).
	HorizonMs float64

	// DisconnectProb is the per-session probability that a proxy hangs
	// up partway through a measurement campaign; the disconnect time is
	// drawn uniformly over the horizon from the session's own stream.
	DisconnectProb float64

	// SpikeProb adds transient tail inflation: with this per-probe
	// probability the measured RTT gains an exponential spike of mean
	// SpikeMeanMs (DefaultSpikeMeanMs when 0) — congestion bursts that
	// survive min-of-k and break minimum-speed assumptions.
	SpikeProb   float64
	SpikeMeanMs float64
}

// Default fault-shape parameters, used when the corresponding
// FaultConfig field is zero but its model is armed.
const (
	DefaultOutageMeanMs = 20000.0
	DefaultHorizonMs    = 60000.0
	DefaultSpikeMeanMs  = 400.0
	// LostProbeTimeoutMs is the simulated time a prober spends waiting
	// before declaring a blackholed probe lost.
	LostProbeTimeoutMs = 3000.0
)

// Enabled reports whether any fault model is armed.
func (c FaultConfig) Enabled() bool {
	return c.ProbeLoss > 0 || c.OutageFraction > 0 || c.DisconnectProb > 0 || c.SpikeProb > 0
}

// Signature returns a deterministic fingerprint of the fault ledger —
// FNV-1a over every field's bit pattern. Verdicts measured under one
// fault configuration are stale under another, so incremental consumers
// fold this into their per-server dependency signatures. The zero config
// has its own (stable) signature, distinct from any armed one.
func (c FaultConfig) Signature() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range []float64{
		c.ProbeLoss, c.OutageFraction, c.OutageMeanMs, c.HorizonMs,
		c.DisconnectProb, c.SpikeProb, c.SpikeMeanMs,
	} {
		h ^= math.Float64bits(v)
		h *= prime
	}
	return h
}

func (c FaultConfig) outageMean() float64 {
	if c.OutageMeanMs > 0 {
		return c.OutageMeanMs
	}
	return DefaultOutageMeanMs
}

// Horizon returns the campaign window in effect.
func (c FaultConfig) Horizon() float64 {
	if c.HorizonMs > 0 {
		return c.HorizonMs
	}
	return DefaultHorizonMs
}

func (c FaultConfig) spikeMean() float64 {
	if c.SpikeMeanMs > 0 {
		return c.SpikeMeanMs
	}
	return DefaultSpikeMeanMs
}

// DefaultFaults is the documented default fault profile at a given
// probe-loss rate: loss plus proportionate outages, disconnects and
// tail spikes, the mix the robustness experiment sweeps.
func DefaultFaults(loss float64) FaultConfig {
	if loss <= 0 {
		return FaultConfig{}
	}
	return FaultConfig{
		ProbeLoss:      loss,
		OutageFraction: loss / 2,
		DisconnectProb: loss / 4,
		SpikeProb:      loss,
	}
}

// Fault-injection errors. They wrap through the measurement layer with
// %w, so errors.Is classification survives.
var (
	// ErrProbeLost is an injected per-probe blackhole.
	ErrProbeLost = errors.New("netsim: probe lost (injected fault)")
	// ErrHostOutage is a probe sent to a host inside its outage window.
	ErrHostOutage = errors.New("netsim: host in outage window (injected fault)")
	// ErrProxyDisconnected is a proxy that hung up mid-session.
	ErrProxyDisconnected = errors.New("netsim: proxy disconnected mid-session (injected fault)")
)

// Transient reports whether a measurement error is worth retrying:
// injected probe loss, an outage window (the host may come back), or a
// natural full-handshake timeout. Structural failures (filtered port,
// unknown host, mid-session disconnect) are not transient.
func Transient(err error) bool {
	return errors.Is(err, ErrProbeLost) ||
		errors.Is(err, ErrHostOutage) ||
		errors.Is(err, ErrTimeout)
}

// Clock is a simulated per-session clock, the time base for outage
// windows, retry backoff and deadline budgets. It is advanced by the
// measured RTTs and injected waits, never by the wall clock, so a
// session's timeline is a pure function of its random stream. A Clock
// is single-session state and is not safe for concurrent use; nil is
// valid and pins the session to time zero.
type Clock struct {
	ms float64
}

// NowMs returns the current simulated session time in milliseconds.
func (c *Clock) NowMs() float64 {
	if c == nil {
		return 0
	}
	return c.ms
}

// Advance moves the clock forward by d milliseconds (non-positive
// deltas are ignored: simulated time never runs backwards).
func (c *Clock) Advance(d float64) {
	if c == nil || d <= 0 {
		return
	}
	c.ms += d
}

// SetFaults arms (or, with the zero config, disarms) the fault layer.
// Probes already in flight finish under the configuration they loaded.
func (n *Network) SetFaults(cfg FaultConfig) {
	n.mu.Lock()
	n.publish(func(s *netState) { s.faults = cfg })
	n.mu.Unlock()
}

// Faults returns the active fault configuration. It takes no lock.
func (n *Network) Faults() FaultConfig {
	return n.state.Load().faults
}

// Outage returns the host's outage window [startMs, endMs) in campaign
// time, if it has one. The window is a pure function of (network seed,
// fault config, host ID): derived through the HashID stream like every
// other per-host property, independent of measurement order.
func (n *Network) Outage(id HostID) (startMs, endMs float64, ok bool) {
	return n.outage(n.Faults(), id)
}

// outage is Outage under the fault configuration cfg.
func (n *Network) outage(cfg FaultConfig, id HostID) (startMs, endMs float64, ok bool) {
	if cfg.OutageFraction <= 0 {
		return 0, 0, false
	}
	h := NewKeyHash().Str("outage|").Int(n.seed).Str("|").Str(string(id))
	u := SeedFloat64s(int64(h), 3)
	if u[0] >= cfg.OutageFraction {
		return 0, 0, false
	}
	startMs = u[1] * cfg.Horizon()
	dur := (0.5 + u[2]) * cfg.outageMean()
	return startMs, startMs + dur, true
}

// HostDown reports whether the host is inside its outage window at the
// given campaign time.
func (n *Network) HostDown(id HostID, atMs float64) bool {
	return n.down(n.Faults(), id, atMs)
}

// down is HostDown under the fault configuration cfg.
func (n *Network) down(cfg FaultConfig, id HostID, atMs float64) bool {
	start, end, ok := n.outage(cfg, id)
	return ok && atMs >= start && atMs < end
}

// SessionDisconnectMs draws, from the session's stream, the campaign
// time at which a proxy session will be cut (ok=false: it survives the
// whole campaign). One draw per armed session, so per-entity streams
// stay aligned across concurrency widths.
func (n *Network) SessionDisconnectMs(rng *rand.Rand) (atMs float64, ok bool) {
	cfg := n.Faults()
	if cfg.DisconnectProb <= 0 {
		return 0, false
	}
	if rng.Float64() >= cfg.DisconnectProb {
		return 0, false
	}
	return rng.Float64() * cfg.Horizon(), true
}

// Probe is the fault-aware measurement primitive: a TCPConnect that
// consults the armed fault models and advances the session clock by
// the simulated time the probe consumed. With the zero FaultConfig it
// draws exactly the same random sequence as TCPConnect, so runs with
// faults disabled are byte-identical to the pre-fault simulator; clk
// may be nil (the session is then pinned to campaign time zero and
// nothing advances).
func (n *Network) Probe(from, to HostID, port int, rng *rand.Rand, clk *Clock) (float64, error) {
	p := n.Path(from, to)
	return p.Probe(port, rng, clk)
}
