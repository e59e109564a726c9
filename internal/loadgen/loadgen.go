// Package loadgen is a deterministic closed-loop load generator for
// the atlasd coordination service. It drives N concurrent
// RemoteTwoPhase clients against an in-process server and separates
// two kinds of truth:
//
//   - The workload is deterministic and runs on the sim clock: each
//     client draws its measurement noise from a per-client seeded
//     stream (measure.StreamSeed, DESIGN.md §6), its landmark sets are
//     pure functions of its (client, campaign) draw key, and its
//     simulated campaign time advances a netsim.Clock by the measured
//     RTTs. Per-client request/response transcripts are therefore
//     byte-identical at any concurrency — the property the soak tests
//     check.
//   - The service observations are wall-clock: per-operation latency,
//     observed into the telemetry distribution "loadgen.op_ms", and how
//     many requests the server shed. These describe the machine the run
//     happened on and are reported, never asserted deterministic.
//
// Clients run closed-loop (each issues its next request only after the
// previous one completes), so concurrency equals offered parallelism
// and shed load comes only from the server's admission bound.
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"activegeo/internal/atlasd"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/parallel"
	"activegeo/internal/telemetry"
)

// Config shapes one load-generation run.
type Config struct {
	// Clients is the number of closed-loop clients (default 1).
	Clients int
	// Iterations is the number of two-phase campaigns per client
	// (default 1). Campaign i uploads under seq i+1.
	Iterations int
	// SecondPhase is the phase-2 landmark count per campaign
	// (default 10).
	SecondPhase int
	// Concurrency bounds how many clients run at once; 0 means all of
	// them. Concurrency 1 is the serial reference run.
	Concurrency int
	// Seed derives every client's measurement-noise stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.Iterations < 1 {
		c.Iterations = 1
	}
	if c.SecondPhase < 1 {
		c.SecondPhase = 10
	}
	if c.Concurrency < 1 || c.Concurrency > c.Clients {
		c.Concurrency = c.Clients
	}
	return c
}

// Runner binds a load run to a server and a measurement world.
type Runner struct {
	// Handler is the coordination server, driven in-process (no
	// sockets, no ports; latency measured around ServeHTTP).
	Handler http.Handler
	// Tool measures RTTs in the simulated world; it must be safe for
	// concurrent use (the stock tools are).
	Tool measure.Tool
	// Hosts are the vantage points; client i measures from
	// Hosts[i%len(Hosts)] and identifies itself by that host ID.
	Hosts []netsim.HostID
	// Telemetry, when non-nil, receives per-op latency observations
	// under "loadgen.op_ms".
	Telemetry *telemetry.Collector
}

// ClientStats is one client's deterministic record of a run.
type ClientStats struct {
	Client    string
	Campaigns int
	// Ops counts completed HTTP operations (2xx responses).
	Ops int
	// Shed counts 429 responses this client saw (and retried).
	Shed int
	// DrainStopped is true when the run ended because the server began
	// draining (503) rather than because iterations ran out.
	DrainStopped bool
	// AcceptedSeqs lists the report sequence numbers the server
	// acknowledged with 202 — the client-side half of the
	// exactly-once ledger check.
	AcceptedSeqs []int64
	// TranscriptSHA is the sha256 over every successful response
	// (method, path, status, body) in issue order. Identical across
	// runs at any concurrency.
	TranscriptSHA string
	// SimMs is the simulated campaign time: the client's netsim.Clock
	// advanced by every measured RTT.
	SimMs float64
}

// Result aggregates a run.
type Result struct {
	PerClient []ClientStats
	Campaigns int
	Ops       int
	Shed      int
	// AcceptedReports sums accepted uploads across clients.
	AcceptedReports int
}

// TranscriptsIdentical reports whether two runs produced byte-identical
// per-client transcripts — the determinism-under-concurrency check.
func TranscriptsIdentical(a, b *Result) bool {
	if len(a.PerClient) != len(b.PerClient) {
		return false
	}
	for i := range a.PerClient {
		if a.PerClient[i].TranscriptSHA != b.PerClient[i].TranscriptSHA {
			return false
		}
	}
	return true
}

// opRecorder observes one client's traffic at the transport layer.
type opRecorder struct {
	hash    hash.Hash
	ops     int
	shed    int
	tel     *telemetry.Collector
	handler http.Handler
}

// RoundTrip serves the request in-process and records latency, shed
// responses, and the success transcript.
func (t *opRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.handler.ServeHTTP(rec, req)
	latMs := float64(time.Since(start).Microseconds()) / 1000
	resp := rec.Result()
	resp.Request = req
	switch {
	case resp.StatusCode/100 == 2:
		t.ops++
		t.tel.Observe("loadgen.op_ms", latMs)
		body := rec.Body.Bytes()
		fmt.Fprintf(t.hash, "%s %s %d\n", req.Method, req.URL.RequestURI(), resp.StatusCode)
		t.hash.Write(body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	case resp.StatusCode == http.StatusTooManyRequests:
		t.shed++
	}
	return resp, nil
}

// Run executes one load-generation run. It returns an error only for
// infrastructure failures; a server that drains mid-run is a normal
// outcome, recorded per client in DrainStopped.
func (r *Runner) Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(r.Hosts) == 0 {
		return nil, errors.New("loadgen: no vantage hosts")
	}
	stats := make([]ClientStats, cfg.Clients)
	errs := make([]error, cfg.Clients)

	// Every client starts, whatever ctx says: each one observes ctx
	// itself and records how it stopped.
	parallel.For(context.Background(), cfg.Clients, cfg.Concurrency, func(i int) {
		stats[i], errs[i] = r.runClient(ctx, cfg, i)
	})

	res := &Result{PerClient: stats}
	for i, st := range stats {
		if errs[i] != nil {
			return nil, fmt.Errorf("loadgen: client %s: %w", st.Client, errs[i])
		}
		res.Campaigns += st.Campaigns
		res.Ops += st.Ops
		res.Shed += st.Shed
		res.AcceptedReports += len(st.AcceptedSeqs)
	}
	return res, nil
}

// newClientRNG derives the client's measurement-noise stream from the
// run seed and the vantage host, the repo's per-entity stream pattern.
func newClientRNG(seed int64, from netsim.HostID) *rand.Rand {
	return netsim.NewRand(measure.StreamSeed(seed, from))
}

// runClient walks one client through its campaigns.
func (r *Runner) runClient(ctx context.Context, cfg Config, i int) (ClientStats, error) {
	from := r.Hosts[i%len(r.Hosts)]
	rec := &opRecorder{hash: sha256.New(), tel: r.Telemetry, handler: r.Handler}
	client := &atlasd.Client{
		BaseURL:    "http://atlasd.inproc",
		HTTPClient: &http.Client{Transport: rec},
	}
	st := ClientStats{Client: string(from)}
	// The per-client noise stream: a pure function of (seed, host), so
	// this client's measured RTTs — and with them its uploads and its
	// whole transcript — do not depend on what other clients do.
	rng := newClientRNG(cfg.Seed, from)
	clk := &netsim.Clock{}

	for it := 0; it < cfg.Iterations; it++ {
		seq := int64(it + 1)
		res, err := atlasd.RemoteTwoPhase(ctx, client, r.Tool, from, cfg.SecondPhase, seq, rng)
		if err != nil {
			var he *atlasd.HTTPError
			if errors.As(err, &he) && he.Status == http.StatusServiceUnavailable {
				st.DrainStopped = true
				break
			}
			return st, err
		}
		st.Campaigns++
		for _, s := range res.Samples() {
			clk.Advance(s.RTTms)
		}
		if res.Accepted {
			st.AcceptedSeqs = append(st.AcceptedSeqs, res.Seq)
		}
	}
	st.Ops = rec.ops
	st.Shed = rec.shed
	st.SimMs = clk.NowMs()
	st.TranscriptSHA = hex.EncodeToString(rec.hash.Sum(nil))
	return st, nil
}
