package atlasd

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// cbgOptions mirrors the slowline calibration the old up-front fixture
// used, so the lazily fitted models match it exactly.
func cbgOptions() cbg.Options { return cbg.Options{Slowline: true} }

var (
	fixOnce sync.Once
	fixCons *atlas.Constellation
)

// testCons builds the shared landmark constellation once; servers are
// cheap now (models fit lazily) so every test gets a fresh one.
func testCons() *atlas.Constellation {
	fixOnce.Do(func() {
		net := netsim.New(31)
		rng := rand.New(rand.NewSource(31))
		cons, err := atlas.Build(net, atlas.Config{Anchors: 50, Probes: 40, SamplesPerPair: 3}, rng)
		if err != nil {
			panic(err)
		}
		fixCons = cons
	})
	return fixCons
}

func testServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return testServerCfg(t, Config{Seed: 31, Opts: cbgOptions()})
}

func testServerCfg(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(testCons(), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func client(ts *httptest.Server) *Client {
	return &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

func TestHealthz(t *testing.T) {
	ts, srv := testServer(t)
	if !client(ts).Healthy(context.Background()) {
		t.Error("server not healthy")
	}
	srv.BeginShutdown()
	if client(ts).Healthy(context.Background()) {
		t.Error("draining server still reports ok")
	}
}

// TestPhase1Landmarks: the phase-one list, read through the client
// Source, is the constellation's own Select on the handler's stateless
// stream — anchors only, at most 3 per continent, IPv4 addresses.
func TestPhase1Landmarks(t *testing.T) {
	ts, srv := testServer(t)
	src := client(ts).Source(context.Background(), "")
	served := 0
	for _, cont := range worldmap.AllContinents() {
		lms, err := src.Draw(atlas.Phase1, cont, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := srv.cons.Select(atlas.Phase1, cont, 3, srv.drawRNG("phase1", cont.String(), 3, ""))
		if len(lms) != len(want) {
			t.Fatalf("%v: served %d anchors, Select draws %d", cont, len(lms), len(want))
		}
		for i, lm := range lms {
			if lm.Host.ID != want[i].Host.ID || !lm.IsAnchor {
				t.Errorf("%v[%d]: served %s (anchor %v), Select draws %s", cont, i, lm.Host.ID, lm.IsAnchor, want[i].Host.ID)
			}
			if lm.Host.Addr == "" || strings.Contains(lm.Host.Addr, ":") {
				t.Errorf("landmark %s addr %q not a bare IPv4", lm.Host.ID, lm.Host.Addr)
			}
		}
		if len(lms) > 0 {
			served++
		}
	}
	if served < 4 {
		t.Errorf("only %d continents served", served)
	}
}

// TestPhase2Landmarks: a phase-two draw stays on its continent and is
// stateless — the same draw key always yields the same set, a different
// key (almost surely) a different one.
func TestPhase2Landmarks(t *testing.T) {
	ts, _ := testServer(t)
	c := client(ts)
	draw := func(key string) []*atlas.Landmark {
		t.Helper()
		lms, err := c.Source(context.Background(), key).Draw(atlas.Phase2, worldmap.Europe, 10, nil)
		if err != nil {
			t.Fatal(err) // ErrMalformed covers a landmark off the continent
		}
		return lms
	}
	lms := draw("client-a")
	if len(lms) == 0 || len(lms) > 10 {
		t.Fatalf("landmarks = %d", len(lms))
	}
	again := draw("client-a")
	if len(again) != len(lms) {
		t.Fatalf("repeat draw size %d != %d", len(again), len(lms))
	}
	for i := range lms {
		if lms[i].Host.ID != again[i].Host.ID {
			t.Errorf("repeat draw differs at %d: %s != %s", i, lms[i].Host.ID, again[i].Host.ID)
		}
	}
	other := draw("client-b")
	same := true
	for i := range lms {
		if i >= len(other) || lms[i].Host.ID != other[i].Host.ID {
			same = false
			break
		}
	}
	if same && len(lms) >= 5 {
		t.Error("two distinct draw keys produced identical selections")
	}
}

func TestPhase2Errors(t *testing.T) {
	ts, _ := testServer(t)
	for _, q := range []string{"continent=Atlantis&n=10", "continent=Europe&n=99999"} {
		resp, err := http.Get(ts.URL + "/v1/landmarks/phase2?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", q, resp.StatusCode)
		}
	}
}

func TestModelEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	c := client(ts)
	anchor := fixCons.Anchors()[0]
	m, err := c.Model(context.Background(), string(anchor.Host.ID))
	if err != nil {
		t.Fatal(err)
	}
	if m.SlopeMsPerKm < 1.0/200-1e-12 {
		t.Errorf("served slope %f faster than baseline", m.SlopeMsPerKm)
	}
	if m.Pooled {
		t.Error("anchor model should not be pooled")
	}
	// Probe: falls back to pooled.
	probe := fixCons.Probes()[0]
	pm, err := c.Model(context.Background(), string(probe.Host.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !pm.Pooled {
		t.Error("probe model should be flagged pooled")
	}
	// Unknown landmark → 404.
	if _, err := c.Model(context.Background(), "nonexistent"); err == nil {
		t.Error("unknown landmark should fail")
	}
}

func TestModelCacheCoalesces(t *testing.T) {
	ts, srv := testServer(t)
	c := client(ts)
	ctx := context.Background()
	anchor := string(fixCons.Anchors()[2].Host.ID)

	// 16 concurrent fetches of the same landmark: exactly one fit.
	var wg sync.WaitGroup
	models := make([]*ModelInfo, 16)
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.Model(ctx, anchor)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i, m := range models {
		if m == nil || *m != *models[0] {
			t.Fatalf("model %d = %+v, want %+v", i, m, models[0])
		}
	}
	stats := srv.Metrics().ModelCache
	if stats.Fits != 1 {
		t.Errorf("fits = %d, want exactly 1 for one landmark", stats.Fits)
	}
	if stats.Misses+stats.Hits < 16 {
		t.Errorf("cache saw %d misses + %d hits for 16 requests", stats.Misses, stats.Hits)
	}

	// Serial re-fetches are pure cache hits.
	before := srv.Metrics().ModelCache
	for i := 0; i < 5; i++ {
		if _, err := c.Model(ctx, anchor); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Metrics().ModelCache
	if after.Fits != before.Fits {
		t.Errorf("serial re-fetches refitted: %d -> %d", before.Fits, after.Fits)
	}
	if after.Hits-before.Hits != 5 {
		t.Errorf("hits advanced by %d, want 5", after.Hits-before.Hits)
	}
}

func TestAdvanceEpochRefits(t *testing.T) {
	ts, srv := testServer(t)
	c := client(ts)
	ctx := context.Background()
	anchor := string(fixCons.Anchors()[3].Host.ID)

	m0, err := c.Model(ctx, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Epoch != 0 {
		t.Errorf("first epoch = %d", m0.Epoch)
	}
	if e := srv.AdvanceEpoch(); e != 1 {
		t.Fatalf("AdvanceEpoch = %d", e)
	}
	m1, err := c.Model(ctx, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Epoch != 1 {
		t.Errorf("post-advance epoch = %d", m1.Epoch)
	}
	// Same world, same landmark: the refitted line is identical.
	if m1.SlopeMsPerKm != m0.SlopeMsPerKm || m1.InterceptMs != m0.InterceptMs {
		t.Errorf("refit changed the model: %+v vs %+v", m1, m0)
	}
	if fits := srv.Metrics().ModelCache.Fits; fits != 1 {
		t.Errorf("fits after reset = %d, want 1 (stats reset with the epoch)", fits)
	}
}

func TestReportUploadAndValidation(t *testing.T) {
	ts, srv := testServer(t)
	c := client(ts)
	anchor := fixCons.Anchors()[1]
	rep := Report{
		Client: "test-client",
		Target: "vpn-X-0001",
		Samples: []ReportSample{
			{LandmarkID: string(anchor.Host.ID), RTTms: 42.5},
		},
	}
	if err := c.Upload(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range srv.Reports() {
		if r.Client == "test-client" && len(r.Samples) == 1 && r.Samples[0].RTTms == 42.5 {
			found = true
		}
	}
	if !found {
		t.Error("uploaded report not stored")
	}

	// Validation failures.
	bad := []Report{
		{Client: "", Samples: rep.Samples}, // no client
		{Client: "x"},                      // no samples
		{Client: "x", Samples: []ReportSample{{LandmarkID: string(anchor.Host.ID), RTTms: -1}}}, // bad RTT
		{Client: "x", Samples: []ReportSample{{LandmarkID: "bogus", RTTms: 5}}},                 // unknown landmark
		{Client: "x", Seq: -2, Samples: rep.Samples},                                            // negative seq
	}
	for i, r := range bad {
		if err := c.Upload(context.Background(), r); err == nil {
			t.Errorf("bad report %d accepted", i)
		}
	}
}

func TestReportExactlyOnce(t *testing.T) {
	ts, srv := testServer(t)
	c := client(ts)
	anchor := fixCons.Anchors()[1]
	rep := Report{
		Client:  "dedup-client",
		Seq:     7,
		Samples: []ReportSample{{LandmarkID: string(anchor.Host.ID), RTTms: 10}},
	}
	// Upload the same (client, seq) three times — a shed-and-retry
	// pattern; the ledger must hold exactly one copy.
	for i := 0; i < 3; i++ {
		if err := c.Upload(context.Background(), rep); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	n := 0
	for _, r := range srv.Reports() {
		if r.Client == "dedup-client" && r.Seq == 7 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("ledgered %d copies, want exactly 1", n)
	}
	if d := srv.Metrics().DuplicateReports; d != 2 {
		t.Errorf("duplicate count = %d, want 2", d)
	}
	// A different seq from the same client is a new report.
	rep.Seq = 8
	if err := c.Upload(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().ReportsLedgered; got != 2 {
		t.Errorf("ledger size = %d, want 2", got)
	}
}

func TestMethodEnforcement(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/landmarks/phase1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to phase1: %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET to report: %d", resp2.StatusCode)
	}
}

func TestReportBodyLimit(t *testing.T) {
	ts, _ := testServer(t)
	huge := strings.NewReader(`{"client":"x","samples":[` + strings.Repeat(`{"landmark_id":"a","rtt_ms":1},`, 100000) + `]}`)
	resp, err := http.Post(ts.URL+"/v1/report", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Error("oversized report accepted")
	}
}

func TestAdmissionSheds(t *testing.T) {
	ts, srv := testServerCfg(t, Config{Seed: 31, MaxInflight: 1})
	// Occupy the single admission slot with a report upload whose body
	// never finishes arriving until we say so.
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/report", pr)
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Endpoints["report"].Requests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("report request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/landmarks/phase1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Ops endpoints bypass admission even while the server is full.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("metrics under load: %d", mresp.StatusCode)
	}
	if shed := srv.Metrics().Endpoints["phase1"].Shed; shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}

	// Release the slot; the held upload finishes normally.
	if _, err := pw.Write([]byte(`{"client":"x","samples":[{"landmark_id":"` +
		string(fixCons.Anchors()[0].Host.ID) + `","rtt_ms":5}]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().ReportsLedgered != 1 {
		t.Error("held report not ledgered after release")
	}
}

func TestDrainWaitsForInflightReports(t *testing.T) {
	ts, srv := testServer(t)
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/report", pr)
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Endpoints["report"].Requests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("report request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginShutdown()
	// New measurement-path work is refused…
	resp, err := http.Get(ts.URL + "/v1/landmarks/phase1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
	// …while Drain waits for the in-flight batch.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v with a report still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := pw.Write([]byte(`{"client":"drainer","samples":[{"landmark_id":"` +
		string(fixCons.Anchors()[0].Host.ID) + `","rtt_ms":5}]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The admitted batch was ledgered before Drain returned.
	found := false
	for _, r := range srv.Reports() {
		if r.Client == "drainer" {
			found = true
		}
	}
	if !found {
		t.Error("in-flight report lost across drain")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	c := client(ts)
	ctx := context.Background()
	if _, err := c.Source(ctx, "m").Draw(atlas.Phase1, worldmap.Europe, 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(ctx, string(fixCons.Anchors()[0].Host.ID)); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["phase1"].Requests != 1 {
		t.Errorf("phase1 requests = %d", m.Endpoints["phase1"].Requests)
	}
	if m.Endpoints["model"].Requests != 1 {
		t.Errorf("model requests = %d", m.Endpoints["model"].Requests)
	}
	if m.ModelCache.Fits < 1 {
		t.Error("no fits recorded")
	}
	if m.Endpoints["phase1"].P50Ms <= 0 {
		t.Error("no latency recorded for phase1")
	}
	if m.MaxInflight != DefaultMaxInflight {
		t.Errorf("max_inflight = %d", m.MaxInflight)
	}
}

func TestRemoteTwoPhase(t *testing.T) {
	ts, srv := testServer(t)
	c := client(ts)
	ctx := context.Background()

	from := berlin(t)
	tool := &measure.CLITool{Net: fixCons.Net()}
	res, err := RemoteTwoPhase(ctx, c, tool, from, 10, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continent.String() != "Europe" {
		t.Errorf("continent = %v", res.Continent)
	}
	if len(res.Phase2) == 0 {
		t.Error("no phase-2 samples")
	}
	if len(res.Phase2) > 10 {
		t.Errorf("phase 2 oversubscribed: %d", len(res.Phase2))
	}
	if !res.Accepted {
		t.Error("report not acknowledged")
	}
	// Every phase-2 landmark came with its delay-distance model.
	if len(res.Models) != len(res.Phase2) {
		t.Errorf("models = %d, phase-2 samples = %d", len(res.Models), len(res.Phase2))
	}
	for _, s := range res.Phase2 {
		m, ok := res.Models[string(s.LandmarkID)]
		if !ok {
			t.Errorf("no model for %s", s.LandmarkID)
			continue
		}
		if m.SlopeMsPerKm < 1.0/200-1e-12 {
			t.Errorf("model for %s faster than baseline", s.LandmarkID)
		}
	}
	// The report landed on the server under the campaign seq.
	found := false
	for _, r := range srv.Reports() {
		if r.Client == string(from) && r.Seq == 1 {
			found = true
		}
	}
	if !found {
		t.Error("remote run did not upload its report")
	}
	// The measurements are usable by algorithms.
	ms := res.Measurements()
	for _, m := range ms {
		if !m.Landmark.Valid() || m.RTTms <= 0 {
			t.Fatalf("bad measurement %+v", m)
		}
	}
}

// berlin returns a measurement target in Berlin, added to the fixture's
// network on first use.
func berlin(t *testing.T) netsim.HostID {
	t.Helper()
	net := testCons().Net()
	from := netsim.HostID("remote-tp-berlin")
	if net.Host(from) == nil {
		if err := net.AddHost(&netsim.Host{ID: from, Loc: geoPoint(52.52, 13.405)}); err != nil {
			t.Fatal(err)
		}
	}
	return from
}

// TestRemoteWebToolCountsSecondTrip: the web tool over served landmarks
// measures each one as it measures the local landmark — a port-80
// landmark costs a second round trip (Trips == 2) — so the campaign's
// samples equal, RTT bit for bit, the tool's local measurements of the
// same landmarks drawn from the same seed (the served draw takes
// nothing from the stream).
func TestRemoteWebToolCountsSecondTrip(t *testing.T) {
	ts, _ := testServer(t)
	from := berlin(t)
	tool := &measure.WebTool{Net: fixCons.Net()}
	res, err := RemoteTwoPhase(context.Background(), client(ts), tool, from, 25, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	twoTrips := 0
	for i, got := range res.Samples() {
		want, err := tool.Measure(from, fixCons.Landmark(got.LandmarkID), rng)
		if err != nil {
			t.Fatalf("sample %d (%s): local measurement failed: %v", i, got.LandmarkID, err)
		}
		if got != want {
			t.Fatalf("sample %d: served %+v, local %+v", i, got, want)
		}
		if got.Trips == 2 {
			twoTrips++
		}
	}
	if twoTrips == 0 {
		t.Fatalf("none of %d samples counted a second round trip", len(res.Samples()))
	}
	t.Logf("%d of %d samples measured two round trips", twoTrips, len(res.Samples()))
}

// TestModelMatchesCalibrate: every served model is, bit for bit, the
// line cbg.Calibrate fits for the same landmark, and Pooled marks
// exactly the probes.
func TestModelMatchesCalibrate(t *testing.T) {
	ts, _ := testServer(t)
	c := client(ts)
	cal, err := cbg.Calibrate(testCons(), cbgOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range fixCons.All() {
		m, err := c.Model(context.Background(), string(lm.Host.ID))
		if err != nil {
			t.Fatal(err)
		}
		line := cal.Line(lm.Host.ID)
		if math.Float64bits(m.SlopeMsPerKm) != math.Float64bits(line.Slope) ||
			math.Float64bits(m.InterceptMs) != math.Float64bits(line.Intercept) {
			t.Errorf("%s: served %v + %v·d, Calibrate %v + %v·d", lm.Host.ID, m.InterceptMs, m.SlopeMsPerKm, line.Intercept, line.Slope)
		}
		if m.Pooled != !lm.IsAnchor {
			t.Errorf("%s: pooled = %v for anchor = %v", lm.Host.ID, m.Pooled, lm.IsAnchor)
		}
	}
}

// TestSourceUnknownContinent: a served landmark on a continent the
// client does not know ends the campaign with ErrUnknownContinent, in
// either phase, instead of being measured as some default continent.
func TestSourceUnknownContinent(t *testing.T) {
	anchor := fixCons.Anchors()[0].Host
	list := func(continent string) []byte {
		b, err := json.Marshal([]LandmarkInfo{{ID: string(anchor.ID), Addr: anchor.Addr,
			Lat: anchor.Loc.Lat, Lon: anchor.Loc.Lon, Continent: continent, Anchor: true}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, c := range map[string]*Client{
		"phase 1": stubClient(list("Atlantis"), list("Europe")),
		"phase 2": stubClient(list("Europe"), list("Atlantis")),
	} {
		_, err := RemoteTwoPhase(context.Background(), c, &measure.CLITool{Net: fixCons.Net()}, berlin(t), 10, 1, rand.New(rand.NewSource(3)))
		if !errors.Is(err, ErrUnknownContinent) {
			t.Errorf("%s: err = %v, want ErrUnknownContinent", name, err)
		}
	}
}

// TestRemoteSourceErrorEndsCampaign: a landmark fetch that fails for
// good ends the campaign with that error — it is not skipped like an
// unreachable landmark — and nothing is reported.
func TestRemoteSourceErrorEndsCampaign(t *testing.T) {
	_, srv := testServer(t)
	h := srv.Handler()
	failing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/landmarks/phase2" {
			httpError(w, http.StatusInternalServerError, "boom")
			return
		}
		h.ServeHTTP(w, r)
	})
	c := &Client{BaseURL: "http://inproc", HTTPClient: &http.Client{Transport: handlerTransport{failing}}}
	_, err := RemoteTwoPhase(context.Background(), c, &measure.CLITool{Net: fixCons.Net()}, berlin(t), 10, 1, rand.New(rand.NewSource(3)))
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want the phase-2 fetch's 500", err)
	}
	if n := len(srv.Reports()); n != 0 {
		t.Errorf("%d reports ledgered by a failed campaign", n)
	}
}

// TestRetrySingle503Terminal pins the drain semantics: 503 means the
// only server that could answer is going away, so it is never retried.
func TestRetrySingle503Terminal(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 10, func() error {
		calls++
		return &HTTPError{Status: http.StatusServiceUnavailable, Msg: "draining"}
	})
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v", err)
	}
	if calls != 1 {
		t.Fatalf("503 retried %d times against a single server", calls)
	}
}

// TestRetryShedBacksOff: 429 is retried with growing backoff until the
// call succeeds; a caller whose context is gone stops waiting.
func TestRetryShedBacksOff(t *testing.T) {
	calls := 0
	start := time.Now()
	err := Retry(context.Background(), 10, func() error {
		calls++
		if calls < 4 {
			return &HTTPError{Status: http.StatusTooManyRequests, Msg: "overloaded"}
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want success on the 4th call", err, calls)
	}
	// Three waits of 1, 2 and 4 ms.
	if elapsed := time.Since(start); elapsed < 7*time.Millisecond {
		t.Errorf("retried without backoff: %v", elapsed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Retry(ctx, 10, func() error {
		return &HTTPError{Status: http.StatusTooManyRequests, Msg: "overloaded"}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retry returned %v", err)
	}
}

// TestHTTPErrorIsErrServer: a non-2xx response reaches the caller as an
// *HTTPError that still satisfies errors.Is(err, ErrServer).
func TestHTTPErrorIsErrServer(t *testing.T) {
	ts, _ := testServer(t)
	_, err := client(ts).Model(context.Background(), "no-such-landmark")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("got %v, want a 404 *HTTPError", err)
	}
	if !errors.Is(err, ErrServer) {
		t.Errorf("errors.Is(%v, ErrServer) = false", err)
	}
	if want := "atlasd: server returned 404: unknown landmark"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestJSONShapes(t *testing.T) {
	// The wire format is part of the API; lock the field names.
	b, _ := json.Marshal(LandmarkInfo{ID: "a", Addr: "192.0.2.1", Lat: 1, Lon: 2, Continent: "Europe", Anchor: true})
	for _, key := range []string{`"id"`, `"addr"`, `"lat"`, `"lon"`, `"continent"`, `"anchor"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("LandmarkInfo JSON missing %s: %s", key, b)
		}
	}
	b, _ = json.Marshal(ModelInfo{LandmarkID: "a"})
	if !strings.Contains(string(b), `"slope_ms_per_km"`) {
		t.Errorf("ModelInfo JSON: %s", b)
	}
	b, _ = json.Marshal(Report{Client: "c", Seq: 3})
	if !strings.Contains(string(b), `"seq"`) {
		t.Errorf("Report JSON missing seq: %s", b)
	}
}

func geoPoint(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }
