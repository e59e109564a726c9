package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"activegeo/internal/atlas"
	"activegeo/internal/atlasd"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/telemetry"
)

const soakClients = 32

var (
	fixOnce  sync.Once
	fixCons  *atlas.Constellation
	fixHosts []netsim.HostID
)

// world builds one simulated constellation plus soakClients vantage
// hosts scattered over the globe, shared by every test.
func world(t *testing.T) (*atlas.Constellation, []netsim.HostID) {
	t.Helper()
	fixOnce.Do(func() {
		net := netsim.New(47)
		rng := rand.New(rand.NewSource(47))
		cons, err := atlas.Build(net, atlas.Config{Anchors: 40, Probes: 30, SamplesPerPair: 3}, rng)
		if err != nil {
			panic(err)
		}
		for i := 0; i < soakClients; i++ {
			id := netsim.HostID(fmt.Sprintf("lg-client-%04d", i))
			loc := geo.Point{Lat: -55 + 120*rng.Float64(), Lon: -175 + 350*rng.Float64()}
			if err := net.AddHost(&netsim.Host{ID: id, Loc: loc}); err != nil {
				panic(err)
			}
			fixHosts = append(fixHosts, id)
		}
		fixCons = cons
	})
	return fixCons, fixHosts
}

func newRunner(srv *atlasd.Server, cons *atlas.Constellation, hosts []netsim.HostID, tel *telemetry.Collector) *Runner {
	return &Runner{
		Handler:   srv.Handler(),
		Tool:      &measure.CLITool{Net: cons.Net()},
		Hosts:     hosts,
		Telemetry: tel,
	}
}

func newServer(cons *atlas.Constellation, maxInflight int) *atlasd.Server {
	return atlasd.NewServer(cons, atlasd.Config{
		Seed:        47,
		Opts:        cbg.Options{Slowline: true},
		MaxInflight: maxInflight,
	})
}

func TestRunSmoke(t *testing.T) {
	cons, hosts := world(t)
	srv := newServer(cons, 0)
	tel := telemetry.New()
	r := newRunner(srv, cons, hosts[:4], tel)
	res, err := r.Run(context.Background(), Config{Clients: 4, Iterations: 2, SecondPhase: 5, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaigns != 8 {
		t.Errorf("campaigns = %d, want 8", res.Campaigns)
	}
	if res.AcceptedReports != 8 {
		t.Errorf("accepted = %d, want 8", res.AcceptedReports)
	}
	if res.Ops == 0 {
		t.Error("no operations completed")
	}
	for _, st := range res.PerClient {
		if st.SimMs <= 0 {
			t.Errorf("client %s: sim clock never advanced", st.Client)
		}
		if st.TranscriptSHA == "" {
			t.Errorf("client %s: empty transcript", st.Client)
		}
		if len(st.AcceptedSeqs) != 2 {
			t.Errorf("client %s: accepted seqs %v", st.Client, st.AcceptedSeqs)
		}
	}
	d, ok := tel.Distribution("loadgen.op_ms")
	if !ok || d.Count != int64(res.Ops) {
		t.Errorf("telemetry distribution missing or short: %+v", d)
	}
	if d.P50 <= 0 || d.P99 < d.P50 {
		t.Errorf("latency quantiles p50=%v p99=%v", d.P50, d.P99)
	}
	// All campaign reports were ledgered, none twice.
	assertLedgerExactlyOnce(t, srv, res)
}

// assertLedgerExactlyOnce cross-checks client receipts against the
// server ledger: every accepted (client, seq) appears exactly once,
// and nothing else does.
func assertLedgerExactlyOnce(t *testing.T, srv *atlasd.Server, res *Result) {
	t.Helper()
	ledger := map[string]int{}
	for _, rep := range srv.Reports() {
		ledger[fmt.Sprintf("%s|%d", rep.Client, rep.Seq)]++
	}
	accepted := 0
	for _, st := range res.PerClient {
		for _, seq := range st.AcceptedSeqs {
			accepted++
			key := fmt.Sprintf("%s|%d", st.Client, seq)
			if n := ledger[key]; n != 1 {
				t.Errorf("report %s ledgered %d times, want exactly 1", key, n)
			}
			delete(ledger, key)
		}
	}
	for key, n := range ledger {
		t.Errorf("ledger holds %d unaccounted copies of %s", n, key)
	}
	if m := srv.Metrics(); m.ReportsLedgered != accepted {
		t.Errorf("ledger size %d != accepted receipts %d", m.ReportsLedgered, accepted)
	}
}

func TestTranscriptsDifferAcrossClients(t *testing.T) {
	cons, hosts := world(t)
	srv := newServer(cons, 0)
	r := newRunner(srv, cons, hosts[:2], nil)
	res, err := r.Run(context.Background(), Config{Clients: 2, SecondPhase: 5, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClient[0].TranscriptSHA == res.PerClient[1].TranscriptSHA {
		t.Error("distinct clients produced identical transcripts")
	}
}

// TestSoakConcurrentMatchesSerial is the §4.1 service determinism
// soak: 32 clients walk the full phase1→phase2→model→report loop
// against one server, once serially and once fully concurrently, and
// every client's transcript must be byte-identical between the runs.
// `make soak` runs it under the race detector.
func TestSoakConcurrentMatchesSerial(t *testing.T) {
	cons, hosts := world(t)
	ctx := context.Background()
	cfg := Config{Clients: soakClients, Iterations: 2, SecondPhase: 8, Seed: 47}

	serialSrv := newServer(cons, 0)
	cfgSerial := cfg
	cfgSerial.Concurrency = 1
	serial, err := newRunner(serialSrv, cons, hosts, nil).Run(ctx, cfgSerial)
	if err != nil {
		t.Fatal(err)
	}

	concSrv := newServer(cons, 0)
	conc, err := newRunner(concSrv, cons, hosts, nil).Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !TranscriptsIdentical(serial, conc) {
		for i := range serial.PerClient {
			if serial.PerClient[i].TranscriptSHA != conc.PerClient[i].TranscriptSHA {
				t.Errorf("client %s transcript diverged under concurrency",
					serial.PerClient[i].Client)
			}
		}
		t.Fatal("concurrent run is not byte-identical to the serial run")
	}
	if serial.Campaigns != conc.Campaigns || serial.AcceptedReports != conc.AcceptedReports {
		t.Errorf("serial %d/%d vs concurrent %d/%d campaigns/accepted",
			serial.Campaigns, serial.AcceptedReports, conc.Campaigns, conc.AcceptedReports)
	}
	for i := range serial.PerClient {
		if serial.PerClient[i].SimMs != conc.PerClient[i].SimMs {
			t.Errorf("client %s sim time %v vs %v", serial.PerClient[i].Client,
				serial.PerClient[i].SimMs, conc.PerClient[i].SimMs)
		}
	}
	assertLedgerExactlyOnce(t, serialSrv, serial)
	assertLedgerExactlyOnce(t, concSrv, conc)

	// The model cache coalesced: one fit per requested landmark (plus
	// the pooled fallback), not one per request.
	stats := concSrv.Metrics().ModelCache
	maxFits := int64(len(cons.All()) + 1)
	if stats.Fits > maxFits {
		t.Errorf("fits = %d, want ≤ %d (one per landmark per epoch)", stats.Fits, maxFits)
	}
	if stats.Hits == 0 {
		t.Error("cache never hit across 32 clients")
	}
}

// TestSoakGracefulShutdownExactlyOnce drains the server mid-soak and
// proves no accepted report is lost and none is duplicated: the ledger
// equals the set of client-side 202 receipts exactly.
func TestSoakGracefulShutdownExactlyOnce(t *testing.T) {
	cons, hosts := world(t)
	// A small admission bound so the soak also exercises shed/retry
	// while the shutdown races the in-flight batches.
	srv := newServer(cons, 8)
	r := newRunner(srv, cons, hosts, nil)

	resc := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := r.Run(context.Background(), Config{
			Clients: soakClients, Iterations: 50, SecondPhase: 6, Seed: 47,
		})
		resc <- res
		errc <- err
	}()

	// Let the soak get going, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Metrics().ReportsLedgered < soakClients {
		if time.Now().After(deadline) {
			t.Fatal("soak never ledgered a first round of reports")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	res := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for _, st := range res.PerClient {
		if st.DrainStopped {
			stopped++
		}
	}
	if stopped == 0 {
		t.Error("no client observed the drain; shutdown happened too late to test anything")
	}
	if res.AcceptedReports == 0 {
		t.Fatal("no reports accepted before shutdown")
	}
	assertLedgerExactlyOnce(t, srv, res)
}
