package measure

import (
	"context"
	"math/rand"
	"sync/atomic"

	"activegeo/internal/atlas"
	"activegeo/internal/netsim"
	"activegeo/internal/parallel"
)

// Batch runs the full proxied two-phase pipeline for many proxies
// concurrently — the command-line tool "can process a list of proxies in
// one batch" (§4.2). Concurrency is bounded both to be kind to the
// landmarks (simultaneous measurements create the extra congestion that
// Holterbach et al. warn invalidates results, §2) and to keep the
// per-proxy random streams deterministic: each proxy gets its own seeded
// generator, so results are identical regardless of scheduling.
type Batch struct {
	Cons   *atlas.Constellation
	Client netsim.HostID
	// Eta is the client-leg correction factor (DefaultEta when 0).
	Eta float64
	// Concurrency bounds parallel proxies (0 = GOMAXPROCS). Results are
	// identical at any width.
	Concurrency int
	// Seed derives each proxy's measurement randomness.
	Seed int64
	// OnProgress, if non-nil, is called once per finished proxy
	// (successful, failed, or cancelled) with the completed count so
	// far and the total. It may be invoked from worker goroutines and
	// must be concurrency-safe; completion order is scheduling-dependent
	// even though results are not.
	OnProgress func(done, total int)
	// Policy, when enabled, arms fault resilience (retries, backoff,
	// budgets) and attaches a degradation ledger to every result; the
	// zero Policy takes no extra draws and attaches none.
	Policy Policy
	// Adversary, when armed, makes its lying proxies manipulate their
	// apparent RTTs and its Byzantine landmarks misreport; honest
	// proxies and a nil or disabled plan measure as the honest pipeline.
	Adversary *AdversaryPlan
}

// BatchResult is one proxy's outcome.
type BatchResult struct {
	Proxy  netsim.HostID
	Result *Result
	Err    error
}

// StreamSeed derives the deterministic per-proxy stream seed from a base
// seed: a pure function of (seed, id) shared by Batch and the experiment
// pipelines, so a serial loop and a parallel batch draw identical
// randomness for the same host.
func StreamSeed(seed int64, id netsim.HostID) int64 {
	return seed ^ int64(netsim.HashID(id))
}

// Run measures every proxy and returns results in the input order. It
// honors ctx cancellation as a clean cutoff: proxies are dispatched in
// input order, ctx is checked before each dispatch, and a dispatched
// proxy runs to completion, so the measured proxies always form a
// prefix of the input and every proxy after it reports ctx.Err().
func (b *Batch) Run(ctx context.Context, proxies []netsim.HostID) []BatchResult {
	out := make([]BatchResult, len(proxies))
	var done atomic.Int64
	finish := func() {
		if b.OnProgress != nil {
			b.OnProgress(int(done.Add(1)), len(proxies))
		}
	}
	ran := parallel.For(ctx, len(proxies), parallel.Workers(b.Concurrency), func(i int) {
		p := proxies[i]
		// Per-proxy deterministic stream: independent of scheduling.
		rng := rand.New(rand.NewSource(StreamSeed(b.Seed, p)))
		out[i].Proxy = p
		out[i].Result, out[i].Err = ProxiedTwoPhaseAdversarial(b.Cons, b.Client, p, b.Eta, b.Policy, b.Adversary, rng)
		finish()
	})
	for i := ran; i < len(proxies); i++ {
		out[i] = BatchResult{Proxy: proxies[i], Err: ctx.Err()}
		finish()
	}
	return out
}
