package measure

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"activegeo/internal/algtest"
	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// scriptedTool fails with the scripted errors in order, then succeeds
// forever with a fixed sample.
type scriptedTool struct {
	errs  []error
	calls int
	rtt   float64
}

func (t *scriptedTool) Measure(_ netsim.HostID, lm *atlas.Landmark, _ *rand.Rand) (Sample, error) {
	i := t.calls
	t.calls++
	if i < len(t.errs) && t.errs[i] != nil {
		return Sample{}, t.errs[i]
	}
	return Sample{LandmarkID: lm.Host.ID, Landmark: lm.Host.Loc, RTTms: t.rtt, Trips: 1}, nil
}

func testLandmark(id string) *atlas.Landmark {
	return &atlas.Landmark{Host: &netsim.Host{
		ID:  netsim.HostID(id),
		Loc: geo.Point{Lat: 48.86, Lon: 2.35},
	}}
}

func freshSession(pol Policy) *Session {
	n := netsim.New(1)
	return NewSession(n, pol, rand.New(rand.NewSource(1)))
}

func TestSessionRetryThenSucceed(t *testing.T) {
	lost := fmt.Errorf("probe: %w", netsim.ErrProbeLost)
	tool := &scriptedTool{errs: []error{lost, lost}, rtt: 42}
	sess := freshSession(Policy{Retries: 2, BackoffMs: 100, MaxBackoffMs: 1000})
	s, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("retry-then-succeed failed: %v", err)
	}
	if s.RTTms != 42 || tool.calls != 3 {
		t.Errorf("sample %v after %d calls, want 42 after 3", s.RTTms, tool.calls)
	}
	if sess.Deg.Retries != 2 || sess.Deg.ProbeFailures != 2 {
		t.Errorf("ledger = %+v, want 2 retries / 2 failures", sess.Deg)
	}
	// Backoff 100 + 200 ms must have been charged to the sim clock.
	if got := sess.Clock.NowMs(); got != 300 {
		t.Errorf("clock = %v ms, want 300 (100+200 backoff)", got)
	}
}

func TestSessionAllAttemptsFail(t *testing.T) {
	lost := fmt.Errorf("probe: %w", netsim.ErrProbeLost)
	tool := &scriptedTool{errs: []error{lost, lost, lost, lost, lost}}
	sess := freshSession(Policy{Retries: 2})
	_, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if !errors.Is(err, netsim.ErrProbeLost) {
		t.Fatalf("err = %v, want ErrProbeLost", err)
	}
	if tool.calls != 3 { // initial + 2 retries
		t.Errorf("calls = %d, want 3", tool.calls)
	}
	if sess.Deg.ProbeFailures != 3 || sess.Deg.Retries != 2 {
		t.Errorf("ledger = %+v, want 3 failures / 2 retries", sess.Deg)
	}
}

func TestSessionNonTransientFailsFast(t *testing.T) {
	tool := &scriptedTool{errs: []error{netsim.ErrPortFiltered, nil}}
	sess := freshSession(Policy{Retries: 5})
	_, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if !errors.Is(err, netsim.ErrPortFiltered) {
		t.Fatalf("err = %v, want ErrPortFiltered", err)
	}
	if tool.calls != 1 {
		t.Errorf("non-transient error retried: %d calls", tool.calls)
	}
}

func TestSessionLandmarkBudgetStopsRetries(t *testing.T) {
	lost := fmt.Errorf("probe: %w", netsim.ErrProbeLost)
	tool := &scriptedTool{errs: []error{lost, lost, lost, lost, lost, lost, lost, lost}}
	// 8 allowed retries, but the landmark budget only admits the first
	// backoff (500 ms > 300 ms budget).
	sess := freshSession(Policy{Retries: 8, BackoffMs: 500, LandmarkBudgetMs: 300})
	_, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if !errors.Is(err, netsim.ErrProbeLost) {
		t.Fatalf("err = %v", err)
	}
	if tool.calls != 1 {
		t.Errorf("calls = %d, want 1 (budget blocks every retry)", tool.calls)
	}
}

func TestSessionCampaignBudgetTerminal(t *testing.T) {
	sess := freshSession(Policy{Retries: 1, CampaignBudgetMs: 100})
	sess.Clock.Advance(150)
	tool := &scriptedTool{rtt: 10}
	_, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if tool.calls != 0 {
		t.Error("tool consulted after campaign budget exhausted")
	}
	if !sess.Terminal() || !sess.Deg.BudgetExhausted {
		t.Errorf("session not terminal: %+v", sess.Deg)
	}
}

func TestSessionDisconnectTerminal(t *testing.T) {
	n := netsim.New(1)
	n.SetFaults(netsim.FaultConfig{DisconnectProb: 1.0})
	sess := NewSession(n, Policy{Retries: 1}, rand.New(rand.NewSource(3)))
	sess.Clock.Advance(n.Faults().Horizon()) // sail past any disconnect time
	tool := &scriptedTool{rtt: 10}
	_, err := sess.Measure(tool, "client", testLandmark("lm"), rand.New(rand.NewSource(2)))
	if !errors.Is(err, netsim.ErrProxyDisconnected) {
		t.Fatalf("err = %v, want ErrProxyDisconnected", err)
	}
	if tool.calls != 0 {
		t.Error("tool consulted after proxy disconnect")
	}
	if !sess.Terminal() || !sess.Deg.Disconnected {
		t.Errorf("session not terminal: %+v", sess.Deg)
	}
}

func TestDegradationCoverageAndConfidence(t *testing.T) {
	var nilDeg *Degradation
	if nilDeg.Coverage() != 1 || nilDeg.Confidence() != ConfidenceFull {
		t.Error("nil ledger must read as full coverage")
	}
	cases := []struct {
		deg  Degradation
		cov  float64
		conf string
	}{
		{Degradation{Planned: 20, Measured: 20}, 1, ConfidenceFull},
		{Degradation{Planned: 20, Measured: 19}, 0.95, ConfidenceFull},
		{Degradation{Planned: 20, Measured: 14}, 0.7, ConfidenceDegraded},
		{Degradation{Planned: 20, Measured: 4}, 0.2, ConfidenceLow},
		{Degradation{Planned: 20, Measured: 20, Disconnected: true}, 1, ConfidenceDegraded},
	}
	for i, c := range cases {
		if got := c.deg.Coverage(); got != c.cov {
			t.Errorf("case %d: coverage = %v, want %v", i, got, c.cov)
		}
		if got := c.deg.Confidence(); got != c.conf {
			t.Errorf("case %d: confidence = %q, want %q", i, got, c.conf)
		}
	}
}

// lossyBatchFixture arms faults on the shared fixture network for the
// duration of the test (the previous fault config is restored at
// cleanup, so later tests and repeated runs see the network they
// expect) and returns a set of proxies for resilient-batch tests.
func lossyBatchFixture(t *testing.T, loss float64) (*Batch, []netsim.HostID) {
	t.Helper()
	cons, _ := algtest.Fixture(t)
	prev := cons.Net().Faults()
	cons.Net().SetFaults(netsim.DefaultFaults(loss))
	t.Cleanup(func() { cons.Net().SetFaults(prev) })
	client := addTarget(t, cons.Net(), "lossy-client", geo.Point{Lat: 50.11, Lon: 8.68})
	var proxies []netsim.HostID
	for i, city := range []geo.Point{
		{Lat: 52.37, Lon: 4.89}, {Lat: 48.86, Lon: 2.35}, {Lat: 40.71, Lon: -74.01},
		{Lat: 35.68, Lon: 139.65}, {Lat: 51.51, Lon: -0.13}, {Lat: 37.77, Lon: -122.42},
	} {
		proxies = append(proxies, addTarget(t, cons.Net(), "lossy-proxy-"+string(rune('a'+i)), city))
	}
	return &Batch{Cons: cons, Client: client, Seed: 4242, Policy: DefaultPolicy()}, proxies
}

// TestResilientBatchDeterministicAcrossConcurrency: the ISSUE's core
// determinism criterion at the measure layer — with a fixed seed and
// faults enabled, runs at different concurrency widths produce
// identical results including the degradation ledgers.
func TestResilientBatchDeterministicAcrossConcurrency(t *testing.T) {
	b, proxies := lossyBatchFixture(t, 0.15)
	ctx := context.Background()
	var runs [][]BatchResult
	for _, conc := range []int{1, 3, 8} {
		b.Concurrency = conc
		runs = append(runs, b.Run(ctx, proxies))
	}
	base := runs[0]
	for r := 1; r < len(runs); r++ {
		for i := range base {
			a, c := base[i], runs[r][i]
			if (a.Err == nil) != (c.Err == nil) {
				t.Fatalf("proxy %s: error mismatch across widths: %v vs %v", a.Proxy, a.Err, c.Err)
			}
			if a.Err != nil {
				continue
			}
			if !reflect.DeepEqual(a.Result.Samples(), c.Result.Samples()) {
				t.Fatalf("proxy %s: samples diverge across concurrency widths", a.Proxy)
			}
			if !reflect.DeepEqual(a.Result.Deg, c.Result.Deg) {
				t.Fatalf("proxy %s: degradation ledgers diverge: %+v vs %+v",
					a.Proxy, a.Result.Deg, c.Result.Deg)
			}
		}
	}
}

// TestResilientBatchDegradesGracefully: under substantial injected
// loss the batch still yields usable partial results with consistent
// ledgers, and CorrectForProxy on the degraded sample sets keeps every
// corrected RTT positive.
func TestResilientBatchDegradesGracefully(t *testing.T) {
	b, proxies := lossyBatchFixture(t, 0.25)
	results := b.Run(context.Background(), proxies)
	succeeded := 0
	sawLoss := false
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		succeeded++
		deg := r.Result.Deg
		if deg == nil {
			t.Fatalf("proxy %s: resilient run without a ledger", r.Proxy)
		}
		if deg.Planned != deg.Measured+len(deg.LostLandmarks) {
			t.Errorf("proxy %s: ledger inconsistent: %+v", r.Proxy, deg)
		}
		if cov := deg.Coverage(); cov < 0 || cov > 1 {
			t.Errorf("proxy %s: coverage %v out of range", r.Proxy, cov)
		}
		if len(deg.LostLandmarks) > 0 {
			sawLoss = true
		}
		// η-corrected samples from a lossy campaign stay physical.
		for _, s := range r.Result.Samples() {
			if s.RTTms <= 0 {
				t.Errorf("proxy %s: non-positive corrected RTT %v", r.Proxy, s.RTTms)
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("no proxy survived 25% loss — resilience not working")
	}
	if !sawLoss {
		t.Error("no landmark losses recorded at 25% injected loss")
	}
}

// TestResilientDisabledMatchesLegacy: a zero Policy must leave Batch on
// the historical path — identical output with and without the resilient
// code compiled in.
func TestResilientDisabledMatchesLegacy(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "legacy-client", geo.Point{Lat: 50.11, Lon: 8.68})
	p := addTarget(t, cons.Net(), "legacy-proxy", geo.Point{Lat: 48.86, Lon: 2.35})
	b := &Batch{Cons: cons, Client: client, Seed: 7}
	r1 := b.Run(context.Background(), []netsim.HostID{p})
	rng := rand.New(rand.NewSource(StreamSeed(7, p)))
	direct, err := ProxiedTwoPhase(cons, client, p, 0, rng)
	if err != nil || r1[0].Err != nil {
		t.Fatal(err, r1[0].Err)
	}
	if !reflect.DeepEqual(r1[0].Result.Samples(), direct.Samples()) {
		t.Error("zero-Policy batch diverges from the legacy pipeline")
	}
	if r1[0].Result.Deg != nil {
		t.Error("legacy path attached a degradation ledger")
	}
}

// minRTT loss-path coverage (ISSUE satellite): all-attempts-fail,
// partial-loss and retry-then-succeed, via the injectable probe.
func TestMinRTTInjectedLossPaths(t *testing.T) {
	ctx := context.Background()
	mk := func(outcomes ...interface{}) func(context.Context, string) (time.Duration, error) {
		i := 0
		return func(context.Context, string) (time.Duration, error) {
			o := outcomes[i%len(outcomes)]
			i++
			if err, ok := o.(error); ok {
				return 0, err
			}
			return o.(time.Duration), nil
		}
	}
	lost := errors.New("injected loss")

	if _, err := minRTT(ctx, "x", 3, mk(lost)); err == nil {
		t.Error("all-attempts-fail must return the last error")
	}
	if got, err := minRTT(ctx, "x", 4, mk(lost, 30*time.Millisecond, lost, 20*time.Millisecond)); err != nil || got != 20*time.Millisecond {
		t.Errorf("partial loss: got %v, %v; want 20ms min of survivors", got, err)
	}
	if got, err := minRTT(ctx, "x", 3, mk(lost, lost, 25*time.Millisecond)); err != nil || got != 25*time.Millisecond {
		t.Errorf("retry-then-succeed: got %v, %v; want 25ms", got, err)
	}

	// Deterministic: the same injected fault script yields the same
	// result on every run.
	for i := 0; i < 3; i++ {
		got, err := minRTT(ctx, "x", 4, mk(lost, 30*time.Millisecond, lost, 20*time.Millisecond))
		if err != nil || got != 20*time.Millisecond {
			t.Fatalf("run %d: %v, %v", i, got, err)
		}
	}

	// Cancellation stops the attempt loop.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	calls := 0
	probe := func(context.Context, string) (time.Duration, error) {
		calls++
		return 0, cctx.Err()
	}
	if _, err := minRTT(cctx, "x", 5, probe); err == nil {
		t.Error("cancelled context must fail")
	}
	if calls != 1 {
		t.Errorf("cancelled loop ran %d attempts, want 1", calls)
	}
}
