package measure

// Fault resilience: per-probe retry with capped exponential backoff on
// the simulated session clock, per-landmark and per-campaign deadline
// budgets, and degradation accounting — so a measurement campaign run
// against an injected-fault network (netsim.FaultConfig) proceeds with
// a partial landmark set instead of failing outright, and reports
// exactly what it lost.
//
// The resilient path is opt-in: the zero Policy keeps every pipeline on
// the historical code path (no extra random draws, no clock), which is
// what keeps fault-free runs byte-identical to the pre-fault engine.

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"activegeo/internal/atlas"
	"activegeo/internal/netsim"
)

// Policy configures the resilience of a measurement session. The zero
// value disables the resilient path entirely.
type Policy struct {
	// Retries is how many times a failed probe is retried (after the
	// tool's own attempts) before the landmark is abandoned.
	Retries int
	// BackoffMs is the initial retry backoff charged to the session
	// clock; it doubles per retry up to MaxBackoffMs. Defaults (when a
	// positive policy leaves them zero): 250 ms, capped at 2000 ms.
	BackoffMs    float64
	MaxBackoffMs float64
	// LandmarkBudgetMs bounds the simulated time spent on one landmark
	// (retries stop once exceeded); 0 = unbounded.
	LandmarkBudgetMs float64
	// CampaignBudgetMs bounds the whole campaign: once the session
	// clock passes it, remaining landmarks are recorded as lost and
	// the campaign returns what it has; 0 = unbounded.
	CampaignBudgetMs float64
}

// Enabled reports whether any resilience feature is armed.
func (p Policy) Enabled() bool {
	return p.Retries > 0 || p.LandmarkBudgetMs > 0 || p.CampaignBudgetMs > 0
}

func (p Policy) backoff() float64 {
	if p.BackoffMs > 0 {
		return p.BackoffMs
	}
	return 250
}

func (p Policy) maxBackoff() float64 {
	if p.MaxBackoffMs > 0 {
		return p.MaxBackoffMs
	}
	return 2000
}

// DefaultPolicy is the resilience profile the audit pipeline uses when
// fault injection is armed: two retries at 250 ms backoff doubling to
// a 2 s cap, 12 s per landmark, 180 s per campaign.
func DefaultPolicy() Policy {
	return Policy{
		Retries:          2,
		BackoffMs:        250,
		MaxBackoffMs:     2000,
		LandmarkBudgetMs: 12000,
		CampaignBudgetMs: 180000,
	}
}

// PolicyFor returns the resilience policy for measuring on n as its
// faults stand now: DefaultPolicy while fault injection is armed, the
// zero policy (the fault-free path) otherwise. Callers read it once per
// batch, so re-arming faults mid-run takes effect on the next batch.
func PolicyFor(n *netsim.Network) Policy {
	if n.Faults().Enabled() {
		return DefaultPolicy()
	}
	return Policy{}
}

// ErrBudget is returned (wrapped) when a campaign's simulated deadline
// budget is exhausted before a landmark could be measured.
var ErrBudget = errors.New("measure: campaign budget exhausted")

// Degradation records what a resilient session lost: the audit tags
// each AuditRun entry with these counters as its coverage/confidence
// annotation.
type Degradation struct {
	// Planned counts landmarks the campaign attempted; Measured the
	// ones that produced a sample.
	Planned  int
	Measured int
	// LostLandmarks are the landmarks that never answered (sorted).
	LostLandmarks []netsim.HostID
	// Retries counts backoff-retry rounds; ProbeFailures counts failed
	// measurement attempts (each up to the tool's attempt count).
	Retries       int
	ProbeFailures int
	// Disconnected marks a proxy that hung up mid-session;
	// BudgetExhausted a campaign cut off by its deadline budget.
	Disconnected    bool
	BudgetExhausted bool
	// ElapsedMs is the campaign's final simulated clock reading.
	ElapsedMs float64
}

// Coverage is the fraction of planned landmarks that produced a
// sample (1 when nothing was planned).
func (d *Degradation) Coverage() float64 {
	if d == nil || d.Planned == 0 {
		return 1
	}
	return float64(d.Measured) / float64(d.Planned)
}

// Confidence grades used by Degradation.Confidence.
const (
	ConfidenceFull     = "full"     // ≥95% coverage, session intact
	ConfidenceDegraded = "degraded" // ≥50% coverage
	ConfidenceLow      = "low"      // anything worse
)

// Confidence maps the coverage (and session fate) to a grade.
func (d *Degradation) Confidence() string {
	cov := d.Coverage()
	switch {
	case cov >= 0.95 && (d == nil || !d.Disconnected):
		return ConfidenceFull
	case cov >= 0.5:
		return ConfidenceDegraded
	default:
		return ConfidenceLow
	}
}

// Session threads one measurement campaign's resilience state: the
// simulated clock, the retry policy, the proxy's disconnect fate and
// the degradation tally. Sessions are single-campaign, single-
// goroutine state; each entity in a batch gets its own.
type Session struct {
	Clock  *netsim.Clock
	Policy Policy
	Deg    Degradation

	net          *netsim.Network
	disconnectAt float64 // campaign time the proxy hangs up; +Inf = never
}

// NewSession starts a resilient campaign session against net. The
// proxy-disconnect fate is drawn once from rng (the entity's stream),
// so the session remains a pure function of (seed, entity).
func NewSession(net *netsim.Network, pol Policy, rng *rand.Rand) *Session {
	s := &Session{
		Clock:        &netsim.Clock{},
		Policy:       pol,
		net:          net,
		disconnectAt: math.Inf(1),
	}
	if at, ok := net.SessionDisconnectMs(rng); ok {
		s.disconnectAt = at
	}
	return s
}

// Terminal reports whether the campaign cannot usefully continue: the
// proxy hung up or the campaign budget ran out.
func (s *Session) Terminal() bool {
	return s.Deg.Disconnected || s.Deg.BudgetExhausted
}

// overBudget reports (and records) campaign-budget exhaustion.
func (s *Session) overBudget() bool {
	if s.Policy.CampaignBudgetMs > 0 && s.Clock.NowMs() >= s.Policy.CampaignBudgetMs {
		s.Deg.BudgetExhausted = true
		return true
	}
	return false
}

// disconnected reports (and records) a proxy that hung up.
func (s *Session) disconnected() bool {
	if s.Clock.NowMs() >= s.disconnectAt {
		s.Deg.Disconnected = true
		return true
	}
	return false
}

// Measure runs one landmark measurement under the session's retry,
// backoff and budget rules, updating the degradation tally. The tool
// must share the session's Clock for budgets to mean anything.
func (s *Session) Measure(tool Tool, from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	if s.overBudget() {
		return Sample{}, ErrBudget
	}
	if s.disconnected() {
		return Sample{}, netsim.ErrProxyDisconnected
	}
	deadline := math.Inf(1)
	if s.Policy.LandmarkBudgetMs > 0 {
		deadline = s.Clock.NowMs() + s.Policy.LandmarkBudgetMs
	}
	backoff := s.Policy.backoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		smp, err := tool.Measure(from, lm, rng)
		if err == nil {
			return smp, nil
		}
		lastErr = err
		if errors.Is(err, netsim.ErrProxyDisconnected) {
			s.Deg.Disconnected = true
			return Sample{}, err
		}
		s.Deg.ProbeFailures++
		if !netsim.Transient(err) || attempt >= s.Policy.Retries {
			return Sample{}, lastErr
		}
		// Capped exponential backoff, charged to the simulated clock.
		s.Clock.Advance(backoff)
		backoff *= 2
		if m := s.Policy.maxBackoff(); backoff > m {
			backoff = m
		}
		s.Deg.Retries++
		if s.Clock.NowMs() > deadline || s.overBudget() {
			return Sample{}, lastErr
		}
		if s.disconnected() {
			return Sample{}, netsim.ErrProxyDisconnected
		}
	}
}

// route runs one landmark measurement through the session and tallies
// its outcome in the degradation ledger; a nil session calls the tool
// directly, the fault-free path.
func (s *Session) route(tool Tool, from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	if s == nil {
		return tool.Measure(from, lm, rng)
	}
	smp, err := s.Measure(tool, from, lm, rng)
	s.record(lm.Host.ID, err)
	return smp, err
}

// record tallies one landmark's outcome in the degradation ledger.
func (s *Session) record(lm netsim.HostID, err error) {
	s.Deg.Planned++
	if err == nil {
		s.Deg.Measured++
		return
	}
	s.Deg.LostLandmarks = append(s.Deg.LostLandmarks, lm)
}

// finish seals the ledger: sorts the losses and stamps the elapsed
// simulated time (a no-op on a nil session).
func (s *Session) finish() {
	if s == nil {
		return
	}
	sort.Slice(s.Deg.LostLandmarks, func(i, j int) bool {
		return s.Deg.LostLandmarks[i] < s.Deg.LostLandmarks[j]
	})
	s.Deg.ElapsedMs = s.Clock.NowMs()
}
