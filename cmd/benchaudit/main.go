// Command benchaudit times the repo's two performance-critical paths
// and writes the numbers as JSON.
//
// Usage:
//
//	benchaudit [-mode audit|locate] [-scale quick|paper] [-out FILE]
//
// Mode "audit" (the default) times the §6 audit pipeline serially and
// in parallel on the same lab configuration, verifies the two runs
// produce identical verdict tallies, and writes BENCH_audit.json. The
// speedup is bounded by the core count: on a single-core machine serial
// and parallel times are expected to be roughly equal, and the JSON
// records the core count so readers can interpret the ratio.
//
// Mode "locate" times each localization algorithm two ways on
// identical measurement vectors — the pre-kernel per-cell-haversine
// reference implementations (internal/refimpl) and the production
// quantized-mask path — then times one full quick audit for the
// end-to-end wall-clock number, and writes BENCH_locate.json. Both
// sides are warmed before timing, so the numbers reflect the steady
// state the audit runs in (landmark distance fields and mask families
// cached). The run aborts with a non-zero exit if any algorithm's
// region differs from the reference by even one cell, or if the
// quick-fleet verdict tally drifts from 166/25/161.
//
// Mode "faults" runs the robustness sweep (experiments.Robustness):
// the full audit plus a five-algorithm crowd localization at each loss
// rate of the default sweep, recording the credible/uncertain/false
// tallies, coverage and mean region sizes vs. injected loss, and writes
// BENCH_faults.json. The sweep is deterministic, so the JSON doubles as
// a regression record of the loss-threshold result in DESIGN.md §10.
//
// Mode "stream" certifies the audit engine's incremental and
// bounded-memory behavior (internal/stream). Incremental: after a full
// pass over the quick fleet, a second pass over the unchanged fleet must
// re-measure nothing (the run aborts otherwise). Memory: a synthetic 100k-server fleet (-servers to
// override) is streamed through bounded batches while the heap is
// sampled at every batch boundary; the run aborts if the peak heap
// exceeds the post-setup baseline by more than the bounded-memory
// ceiling, or if the peak number of simultaneously provisioned hosts
// exceeds (queue depth + 2) batches. Results go to BENCH_stream.json.
//
// Mode "constellation" certifies the sharded coordination fleet
// (DESIGN.md §13): thousands of closed-loop clients run their
// campaigns across an N-shard epoch-coordinated constellation — ring
// routing, failover, hedged phase-2 queries — and the run aborts
// unless every client's logical transcript is byte-identical to a
// single-shard serial oracle. A second fleet repeats the run while a
// shard is drained mid-soak (its ledger replayed to ring successors)
// and the fleet epoch is advanced through the two-phase barrier; the
// same byte-identity and the exactly-once ledger contract must hold
// through the churn. Throughput, failover/hedge counts, the ring
// partition and per-shard fit counts go to BENCH_constellation.json.
//
// Mode "adversary" scores the detection layer against the default
// attack matrix (experiments.DefaultAttackMatrix): the full audit runs
// under every attack point — lying proxies, Byzantine landmarks, blends
// and an all-honest control — at the fixed benchmark scale
// (experiments.AdversaryBenchConfig), once serially and once at the
// machine's width on fresh labs. The run aborts with a non-zero exit
// unless the two sweeps' fingerprints (every per-point audit SHA and
// confusion matrix) are byte-identical, and unless the pooled detection
// quality clears the CI floors: precision ≥ 0.9 and recall ≥ 0.8.
// Per-point confusion matrices and the pooled scores go to
// BENCH_adversary.json.
//
// Mode "atlasd" load-tests the coordination service (DESIGN.md §11):
// 32 closed-loop clients run the full phase1→phase2→model→report
// campaign against an in-process server, once serially and once fully
// concurrently on fresh servers, and the run aborts unless every
// client's transcript is byte-identical between the two. A third run
// drains the server mid-soak and verifies no accepted report was
// dropped or duplicated. Throughput, p50/p99 latency, shed rate and
// model-cache coalescing go to BENCH_atlasd.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/atlas"
	"activegeo/internal/atlasd"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/constellation"
	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/loadgen"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/refimpl"
	"activegeo/internal/stream"
)

type auditReport struct {
	Config           string  `json:"config"`
	Servers          int     `json:"servers"`
	Cores            int     `json:"cores"`
	ParallelWorkers  int     `json:"parallel_workers"`
	SerialMs         float64 `json:"serial_ms"`
	ParallelMs       float64 `json:"parallel_ms"`
	Speedup          float64 `json:"speedup"`
	TalliesIdentical bool    `json:"tallies_identical"`
	Credible         int     `json:"credible"`
	Uncertain        int     `json:"uncertain"`
	False            int     `json:"false"`
}

type faultsRow struct {
	Loss            float64            `json:"loss"`
	Credible        int                `json:"credible"`
	Uncertain       int                `json:"uncertain"`
	False           int                `json:"false"`
	MeanCoverage    float64            `json:"mean_coverage"`
	MeasureFailures int                `json:"measure_failures"`
	LocateFailures  int                `json:"locate_failures"`
	DegradedServers int                `json:"degraded_servers"`
	Disconnects     int                `json:"disconnects"`
	LostLandmarks   int                `json:"lost_landmarks"`
	Retries         int                `json:"retries"`
	MeanAreaKm2     map[string]float64 `json:"mean_area_km2"`
	WithinTolerance bool               `json:"within_tolerance"`
}

type faultsReport struct {
	Config        string      `json:"config"`
	Cores         int         `json:"cores"`
	Servers       int         `json:"servers"`
	CrowdHosts    int         `json:"crowd_hosts"`
	LossThreshold float64     `json:"loss_threshold"`
	Tolerance     float64     `json:"tolerance"`
	WallMs        float64     `json:"wall_ms"`
	Points        []faultsRow `json:"points"`
}

// locateRow times each algorithm two ways: the pre-kernel reference
// (before) and the production quantized-mask path (after). The diff
// column compares against the reference regions summed over every
// benchmark target and must be zero — runLocate aborts otherwise.
type locateRow struct {
	Algorithm   string  `json:"algorithm"`
	BeforeMsOp  float64 `json:"before_ms_per_locate"`
	AfterMsOp   float64 `json:"after_ms_per_locate"`
	Speedup     float64 `json:"speedup"`
	RegionCells int     `json:"region_cells"`
	DiffCells   int     `json:"diff_cells_vs_reference"`
}

type locateReport struct {
	Config        string      `json:"config"`
	Cores         int         `json:"cores"`
	GridResDeg    float64     `json:"grid_res_deg"`
	Targets       int         `json:"targets"`
	Algorithms    []locateRow `json:"algorithms"`
	MaskStepKm    float64     `json:"mask_step_km"`
	MaskLevels    int         `json:"mask_levels"`
	MaskBytes     int         `json:"mask_bytes_per_landmark"`
	MaskHits      uint64      `json:"mask_hits"`
	MaskMisses    uint64      `json:"mask_misses"`
	MaskEvictions uint64      `json:"mask_evictions"`
	MaskRefined   uint64      `json:"mask_refined_cells"`
	AuditWallMs   float64     `json:"audit_wall_ms"`
	Credible      int         `json:"credible"`
	Uncertain     int         `json:"uncertain"`
	False         int         `json:"false"`
	TallyPinned   bool        `json:"tally_pinned"`
}

// timeAudit builds a fresh lab at the given concurrency and times one
// full audit. A fresh lab per run keeps the comparison honest: nothing
// is pre-warmed for the second configuration.
func timeAudit(cfg experiments.Config, workers int) (time.Duration, assess.Tally, int, error) {
	cfg.Concurrency = workers
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return 0, assess.Tally{}, 0, err
	}
	start := time.Now()
	run, err := lab.Audit()
	if err != nil {
		return 0, assess.Tally{}, 0, err
	}
	return time.Since(start), assess.Tabulate(run.Results), len(run.Results), nil
}

func runAudit(scale string, cfg experiments.Config, out string) {
	workers := runtime.GOMAXPROCS(0)
	serial, serialTally, servers, err := timeAudit(cfg, 1)
	if err != nil {
		log.Fatalf("serial audit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serial (1 worker):    %v over %d servers\n", serial.Round(time.Millisecond), servers)
	parallel, parallelTally, _, err := timeAudit(cfg, workers)
	if err != nil {
		log.Fatalf("parallel audit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "parallel (%d workers): %v\n", workers, parallel.Round(time.Millisecond))

	identical := serialTally == parallelTally
	if !identical {
		log.Fatalf("determinism violation: serial tally %+v != parallel tally %+v", serialTally, parallelTally)
	}

	r := auditReport{
		Config:           scale,
		Servers:          servers,
		Cores:            runtime.NumCPU(),
		ParallelWorkers:  workers,
		SerialMs:         float64(serial.Microseconds()) / 1000,
		ParallelMs:       float64(parallel.Microseconds()) / 1000,
		Speedup:          float64(serial) / float64(parallel),
		TalliesIdentical: identical,
		Credible:         serialTally.Credible,
		Uncertain:        serialTally.Uncertain,
		False:            serialTally.False,
	}
	writeJSON(out, r)
	fmt.Fprintf(os.Stderr, "speedup %.2fx on %d cores; tallies identical; wrote %s\n", r.Speedup, r.Cores, out)
}

// timeLocate reports the mean per-Locate wall time over the target
// measurement vectors, after one warmup pass (which also fills the
// distance-field cache for the kernel side — the steady state every
// audit target after the first runs in).
func timeLocate(alg geoloc.Algorithm, targets [][]geoloc.Measurement) (float64, error) {
	for _, ms := range targets {
		if _, err := alg.Locate(ms); err != nil {
			return 0, err
		}
	}
	const minRounds, minDuration = 3, 300 * time.Millisecond
	rounds := 0
	start := time.Now()
	for rounds < minRounds || time.Since(start) < minDuration {
		for _, ms := range targets {
			if _, err := alg.Locate(ms); err != nil {
				return 0, err
			}
		}
		rounds++
	}
	elapsed := time.Since(start)
	return float64(elapsed.Microseconds()) / 1000 / float64(rounds*len(targets)), nil
}

// symmetricDiffCells counts cells in exactly one of the two regions.
func symmetricDiffCells(a, b interface {
	Each(func(int))
	Contains(int) bool
}) int {
	n := 0
	a.Each(func(i int) {
		if !b.Contains(i) {
			n++
		}
	})
	b.Each(func(i int) {
		if !a.Contains(i) {
			n++
		}
	})
	return n
}

func runLocate(scale string, cfg experiments.Config, out string) {
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatalf("building lab: %v", err)
	}
	const nTargets = 3
	if len(lab.Crowd) < nTargets {
		log.Fatalf("need %d crowd hosts, lab has %d", nTargets, len(lab.Crowd))
	}
	targets := make([][]geoloc.Measurement, nTargets)
	for i := range targets {
		rng := rand.New(rand.NewSource(int64(77 + i)))
		targets[i] = measure.Measurements(lab.Crowd[i].MeasureAllAnchors(lab.Cons, rng))
		if len(targets[i]) == 0 {
			log.Fatalf("crowd host %d produced no measurements", i)
		}
	}

	model := lab.Spotter.Model()
	pairs := []struct {
		name      string
		ref, fast geoloc.Algorithm
	}{
		{"CBG", &refimpl.CBG{Env: lab.Env, Cal: lab.CBG.Calibration()}, lab.CBG},
		{"CBG++", &refimpl.CBGPP{Env: lab.Env, Cal: lab.CBGpp.Calibration()}, lab.CBGpp},
		{"Quasi-Octant", &refimpl.Octant{Env: lab.Env, Cal: lab.Octant.Calibration()}, lab.Octant},
		{"Spotter", &refimpl.Spotter{Env: lab.Env, Model: model}, lab.Spotter},
		{"Hybrid", &refimpl.Hybrid{Env: lab.Env, Model: model}, lab.Hybrid},
	}

	rep := locateReport{
		Config:     scale,
		Cores:      runtime.NumCPU(),
		GridResDeg: cfg.GridResDeg,
		Targets:    nTargets,
	}
	for _, p := range pairs {
		before, err := timeLocate(p.ref, targets)
		if err != nil {
			log.Fatalf("%s reference: %v", p.name, err)
		}
		after, err := timeLocate(p.fast, targets)
		if err != nil {
			log.Fatalf("%s mask path: %v", p.name, err)
		}
		// Equivalence oracle over every benchmark target: reference vs
		// mask path, byte-identical.
		diff, regionCells := 0, 0
		for ti, ms := range targets {
			refRegion, err := p.ref.Locate(ms)
			if err != nil {
				log.Fatalf("%s reference: %v", p.name, err)
			}
			maskRegion, err := p.fast.Locate(ms)
			if err != nil {
				log.Fatalf("%s mask path: %v", p.name, err)
			}
			diff += symmetricDiffCells(refRegion, maskRegion)
			if ti == 0 {
				regionCells = maskRegion.Count()
			}
		}
		row := locateRow{
			Algorithm:   p.name,
			BeforeMsOp:  before,
			AfterMsOp:   after,
			Speedup:     before / after,
			RegionCells: regionCells,
			DiffCells:   diff,
		}
		rep.Algorithms = append(rep.Algorithms, row)
		fmt.Fprintf(os.Stderr, "%-13s before %8.3f ms  after %8.3f ms  %6.1fx (diff %d cells)\n",
			p.name, row.BeforeMsOp, row.AfterMsOp, row.Speedup, row.DiffCells)
		if diff != 0 {
			log.Fatalf("%s: regions differ from reference by %d cells — geometry must be byte-identical", p.name, diff)
		}
	}

	s := lab.Env.Masks.Stats()
	rep.MaskStepKm = grid.MaskStepKm
	rep.MaskLevels = s.Levels
	rep.MaskBytes = s.BytesPerMask
	rep.MaskHits = s.Hits
	rep.MaskMisses = s.Misses
	rep.MaskEvictions = s.Evictions
	rep.MaskRefined = s.RefinedCells
	fmt.Fprintf(os.Stderr, "mask cache: %d entries, %d hits / %d misses, %d annulus cells refined (%d levels, %d KB/landmark)\n",
		s.Entries, s.Hits, s.Misses, s.RefinedCells, s.Levels, s.BytesPerMask/1024)

	wall, tally, servers, err := timeAudit(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	rep.AuditWallMs = float64(wall.Microseconds()) / 1000
	rep.Credible = tally.Credible
	rep.Uncertain = tally.Uncertain
	rep.False = tally.False
	fmt.Fprintf(os.Stderr, "quick audit: %v over %d servers (credible %d / uncertain %d / false %d)\n",
		wall.Round(time.Millisecond), servers, tally.Credible, tally.Uncertain, tally.False)
	if scale == "quick" {
		if tally.Credible != 166 || tally.Uncertain != 25 || tally.False != 161 {
			log.Fatalf("quick-fleet tally drifted: got %d/%d/%d, want 166/25/161 — the mask cache must not change verdicts",
				tally.Credible, tally.Uncertain, tally.False)
		}
		rep.TallyPinned = true
	}

	writeJSON(out, rep)
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

func runFaults(scale string, cfg experiments.Config, out string) {
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatalf("building lab: %v", err)
	}
	const crowdHosts = 8
	start := time.Now()
	res, err := lab.Robustness(nil, crowdHosts)
	if err != nil {
		log.Fatalf("robustness sweep: %v", err)
	}
	wall := time.Since(start)

	rep := faultsReport{
		Config:        scale,
		Cores:         runtime.NumCPU(),
		Servers:       len(lab.Fleet.Servers()),
		CrowdHosts:    res.CrowdHosts,
		LossThreshold: experiments.RobustnessLossThreshold,
		Tolerance:     experiments.RobustnessTallyTolerance,
		WallMs:        float64(wall.Microseconds()) / 1000,
	}
	baseline := res.Points[0].Tally
	for _, p := range res.Points {
		row := faultsRow{
			Loss:            p.Loss,
			Credible:        p.Tally.Credible,
			Uncertain:       p.Tally.Uncertain,
			False:           p.Tally.False,
			MeanCoverage:    p.MeanCoverage,
			MeasureFailures: p.MeasureFailures,
			LocateFailures:  p.LocateFailures,
			DegradedServers: p.DegradedServers,
			Disconnects:     p.Disconnects,
			LostLandmarks:   p.LostLandmarks,
			Retries:         p.Retries,
			MeanAreaKm2:     map[string]float64{},
			WithinTolerance: p.WithinTolerance(baseline, experiments.RobustnessTallyTolerance),
		}
		for _, a := range p.Areas {
			row.MeanAreaKm2[a.Algorithm] = a.MeanAreaKm2
		}
		rep.Points = append(rep.Points, row)
		fmt.Fprintf(os.Stderr, "loss %.2f: %4d/%4d/%4d  coverage %.3f  degraded %d  within tolerance: %v\n",
			p.Loss, p.Tally.Credible, p.Tally.Uncertain, p.Tally.False,
			p.MeanCoverage, p.DegradedServers, row.WithinTolerance)
	}
	for _, row := range rep.Points {
		if row.Loss <= rep.LossThreshold && !row.WithinTolerance {
			log.Fatalf("loss %.2f is under the documented threshold %.2f but outside tolerance", row.Loss, rep.LossThreshold)
		}
	}
	writeJSON(out, rep)
	fmt.Fprintf(os.Stderr, "swept %d loss rates in %v; wrote %s\n", len(rep.Points), wall.Round(time.Millisecond), out)
}

type atlasdReport struct {
	Config      string `json:"config"`
	Cores       int    `json:"cores"`
	Landmarks   int    `json:"landmarks"`
	Clients     int    `json:"clients"`
	Iterations  int    `json:"iterations"`
	SecondPhase int    `json:"second_phase"`
	MaxInflight int    `json:"max_inflight"`

	// Concurrent-vs-serial determinism run:
	Ops                  int     `json:"ops"`
	SerialWallMs         float64 `json:"serial_wall_ms"`
	ConcurrentWallMs     float64 `json:"concurrent_wall_ms"`
	ThroughputOps        float64 `json:"throughput_ops_per_sec"`
	P50Ms                float64 `json:"p50_ms"`
	P99Ms                float64 `json:"p99_ms"`
	Shed                 int     `json:"shed"`
	ShedRate             float64 `json:"shed_rate"`
	TranscriptsIdentical bool    `json:"transcripts_identical"`
	ModelFits            int64   `json:"model_fits"`
	ModelCacheHits       int64   `json:"model_cache_hits"`
	ModelCoalesced       int64   `json:"model_coalesced"`

	// Graceful-shutdown run:
	DrainStoppedClients int   `json:"drain_stopped_clients"`
	DrainAccepted       int   `json:"drain_accepted_reports"`
	DrainDropped        int   `json:"drain_dropped_reports"`
	DuplicateReports    int64 `json:"duplicate_reports"`
}

// ledgerDiff cross-checks client-side 202 receipts against the server
// ledger and returns how many receipts have no ledger entry (dropped)
// plus how many ledger entries have no receipt (phantom). Both must be
// zero for the exactly-once guarantee to hold.
func ledgerDiff(srv *atlasd.Server, res *loadgen.Result) (dropped, phantom int) {
	ledger := map[string]int{}
	for _, rep := range srv.Reports() {
		ledger[fmt.Sprintf("%s|%d", rep.Client, rep.Seq)]++
	}
	for _, st := range res.PerClient {
		for _, seq := range st.AcceptedSeqs {
			key := fmt.Sprintf("%s|%d", st.Client, seq)
			if ledger[key] != 1 {
				dropped++
			}
			delete(ledger, key)
		}
	}
	for _, n := range ledger {
		phantom += n
	}
	return dropped, phantom
}

func runAtlasd(scale, out string) {
	const seed = 2018
	clients, iterations, secondPhase := 32, 3, 8
	anchors, probes := 40, 30
	if scale == "paper" {
		anchors, probes, iterations = 120, 200, 5
	}

	simNet := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: anchors, Probes: probes, SamplesPerPair: 3}, rng)
	if err != nil {
		log.Fatalf("building constellation: %v", err)
	}
	hosts := make([]netsim.HostID, clients)
	for i := range hosts {
		id := netsim.HostID(fmt.Sprintf("bench-client-%04d", i))
		loc := geo.Point{Lat: -55 + 120*rng.Float64(), Lon: -175 + 350*rng.Float64()}
		if err := simNet.AddHost(&netsim.Host{ID: id, Loc: loc}); err != nil {
			log.Fatalf("adding vantage host: %v", err)
		}
		hosts[i] = id
	}

	newServer := func(maxInflight int) *atlasd.Server {
		return atlasd.NewServer(cons, atlasd.Config{
			Seed:        seed,
			Opts:        cbg.Options{Slowline: true},
			MaxInflight: maxInflight,
		})
	}
	newRunner := func(srv *atlasd.Server) *loadgen.Runner {
		return &loadgen.Runner{
			Handler: srv.Handler(),
			Tool:    &measure.CLITool{Net: cons.Net()},
			Hosts:   hosts,
		}
	}
	cfg := loadgen.Config{Clients: clients, Iterations: iterations, SecondPhase: secondPhase, Seed: seed}
	ctx := context.Background()

	// 1. Serial reference run on a fresh server.
	serialCfg := cfg
	serialCfg.Concurrency = 1
	serial, err := newRunner(newServer(0)).Run(ctx, serialCfg)
	if err != nil {
		log.Fatalf("serial run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serial (1 at a time):   %d ops in %.0f ms\n", serial.Ops, serial.WallMs)

	// 2. Fully concurrent run on another fresh server.
	concSrv := newServer(0)
	conc, err := newRunner(concSrv).Run(ctx, cfg)
	if err != nil {
		log.Fatalf("concurrent run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "concurrent (%d clients): %d ops in %.0f ms (%.0f ops/s, p50 %.3f ms, p99 %.3f ms)\n",
		clients, conc.Ops, conc.WallMs, conc.ThroughputOps, conc.P50Ms, conc.P99Ms)

	if !loadgen.TranscriptsIdentical(serial, conc) {
		log.Fatalf("determinism violation: concurrent transcripts differ from the serial run")
	}
	if d, p := ledgerDiff(concSrv, conc); d != 0 || p != 0 {
		log.Fatalf("ledger mismatch in concurrent run: %d dropped, %d phantom", d, p)
	}
	cache := concSrv.Metrics().ModelCache
	if maxFits := int64(len(cons.All()) + 1); cache.Fits > maxFits {
		log.Fatalf("model cache did not coalesce: %d fits for %d landmarks", cache.Fits, len(cons.All()))
	}
	fmt.Fprintf(os.Stderr, "transcripts identical; model cache: %d fits, %d hits, %d coalesced\n",
		cache.Fits, cache.Hits, cache.Coalesced)

	// 3. Graceful shutdown under load: a small admission bound plus an
	// over-long campaign; drain once every client has a ledgered report.
	drainSrv := newServer(8)
	drainCfg := cfg
	drainCfg.Iterations = 50
	resc := make(chan *loadgen.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := newRunner(drainSrv).Run(ctx, drainCfg)
		resc <- res
		errc <- err
	}()
	deadline := time.Now().Add(60 * time.Second)
	for drainSrv.Metrics().ReportsLedgered < clients {
		if time.Now().After(deadline) {
			log.Fatalf("shutdown scenario never ledgered a first round of reports")
		}
		time.Sleep(2 * time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := drainSrv.Drain(drainCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	drained := <-resc
	if err := <-errc; err != nil {
		log.Fatalf("shutdown run: %v", err)
	}
	stopped := 0
	for _, st := range drained.PerClient {
		if st.DrainStopped {
			stopped++
		}
	}
	dropped, phantom := ledgerDiff(drainSrv, drained)
	if dropped != 0 || phantom != 0 {
		log.Fatalf("graceful shutdown lost reports: %d dropped, %d phantom", dropped, phantom)
	}
	m := drainSrv.Metrics()
	fmt.Fprintf(os.Stderr, "graceful shutdown: %d clients stopped by drain, %d reports accepted, 0 dropped (%d duplicate retries suppressed)\n",
		stopped, drained.AcceptedReports, m.DuplicateReports)

	writeJSON(out, atlasdReport{
		Config:      scale,
		Cores:       runtime.NumCPU(),
		Landmarks:   len(cons.All()),
		Clients:     clients,
		Iterations:  iterations,
		SecondPhase: secondPhase,
		MaxInflight: atlasd.DefaultMaxInflight,

		Ops:                  conc.Ops,
		SerialWallMs:         serial.WallMs,
		ConcurrentWallMs:     conc.WallMs,
		ThroughputOps:        conc.ThroughputOps,
		P50Ms:                conc.P50Ms,
		P99Ms:                conc.P99Ms,
		Shed:                 conc.Shed,
		ShedRate:             conc.ShedRate(),
		TranscriptsIdentical: true,
		ModelFits:            cache.Fits,
		ModelCacheHits:       cache.Hits,
		ModelCoalesced:       cache.Coalesced,

		DrainStoppedClients: stopped,
		DrainAccepted:       drained.AcceptedReports,
		DrainDropped:        dropped,
		DuplicateReports:    m.DuplicateReports,
	})
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

type streamReport struct {
	Config string `json:"config"`
	Cores  int    `json:"cores"`

	// Quick fleet: full pass, then an incremental pass that must audit 0.
	Servers          int `json:"servers"`
	Credible         int `json:"credible"`
	Uncertain        int `json:"uncertain"`
	False            int `json:"false"`
	SecondPassAudits int `json:"second_pass_audits"`

	// Synthetic bounded-memory run:
	SynthServers    int     `json:"synth_servers"`
	BatchSize       int     `json:"batch_size"`
	QueueDepth      int     `json:"queue_depth"`
	SynthWallMs     float64 `json:"synth_wall_ms"`
	SynthBatches    int     `json:"synth_batches"`
	BaselineHeapMB  float64 `json:"baseline_heap_mb"`
	PeakHeapMB      float64 `json:"peak_heap_mb"`
	HeapCeilingMB   float64 `json:"heap_ceiling_mb"`
	MaxLiveHosts    int     `json:"max_live_hosts"`
	LiveHostBound   int     `json:"live_host_bound"`
	SynthCredible   int     `json:"synth_credible"`
	SynthUncertain  int     `json:"synth_uncertain"`
	SynthFalse      int     `json:"synth_false"`
	SynthSecondPass int     `json:"synth_second_pass_audits"`
}

// heapMB returns the current live-heap size in MB after a collection,
// so batch-to-batch samples measure retained state, not GC phase.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func runStream(scale string, cfg experiments.Config, synthServers int, out string) {
	workers := runtime.GOMAXPROCS(0)
	cfg.Concurrency = workers

	// Part 1: a second pass over the unchanged quick fleet re-measures
	// nothing.
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatalf("building lab: %v", err)
	}
	auditor := lab.StreamingAuditor(0, 0)
	first, err := auditor.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		log.Fatalf("streaming audit: %v", err)
	}
	second, err := auditor.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		log.Fatalf("second streaming pass: %v", err)
	}
	if second.Audited != 0 {
		log.Fatalf("incremental bug: second pass over the unchanged fleet re-measured %d servers", second.Audited)
	}
	tally := auditor.Store().Tally()
	fmt.Fprintf(os.Stderr, "quick fleet: %d servers audited, pass 2 re-measured 0\n", first.Audited)

	// Part 2: bounded memory on a synthetic fleet far larger than RAM
	// would allow if the pipeline materialized it.
	const batchSize, queueDepth = 256, 2
	simNet := netsim.New(9090)
	rng := rand.New(rand.NewSource(9090))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: 24, Probes: 12, SamplesPerPair: 3}, rng)
	if err != nil {
		log.Fatalf("building synth constellation: %v", err)
	}
	env := geoloc.NewEnv(4)
	cal, err := cbgpp.Calibrate(cons, cbgpp.Options{})
	if err != nil {
		log.Fatalf("calibrating: %v", err)
	}
	client := netsim.HostID("stream-bench-client")
	if err := simNet.AddHost(&netsim.Host{ID: client, Loc: geo.Point{Lat: 50.11, Lon: 8.68}, AccessDelayMs: 1}); err != nil {
		log.Fatalf("adding client: %v", err)
	}
	src := stream.NewSynthSource(simNet, synthServers, 777)

	baseline := heapMB()
	ceiling := baseline + 128
	peak := baseline
	var mu sync.Mutex
	synthAuditor := stream.New(stream.Config{
		Cons:        cons,
		Client:      client,
		Env:         env,
		Locator:     cbgpp.New(env, cal, cbgpp.Options{}),
		Seed:        4242,
		Concurrency: workers,
		BatchSize:   batchSize,
		QueueDepth:  queueDepth,
		OnBatchDone: func(bs stream.BatchStats) {
			h := heapMB()
			mu.Lock()
			if h > peak {
				peak = h
			}
			mu.Unlock()
		},
	})
	start := time.Now()
	synthStats, err := synthAuditor.Sync(context.Background(), src)
	if err != nil {
		log.Fatalf("synthetic streaming audit: %v", err)
	}
	synthWall := time.Since(start)
	if peak > ceiling {
		log.Fatalf("bounded-memory violation: peak heap %.1f MB exceeds ceiling %.1f MB (baseline %.1f MB)", peak, ceiling, baseline)
	}
	liveBound := (queueDepth + 2) * batchSize
	if src.MaxLiveHosts() > liveBound {
		log.Fatalf("provisioning violation: %d live hosts at peak, bound is %d", src.MaxLiveHosts(), liveBound)
	}
	synthSecond, err := synthAuditor.Sync(context.Background(), src)
	if err != nil {
		log.Fatalf("second synthetic pass: %v", err)
	}
	if synthSecond.Audited != 0 {
		log.Fatalf("incremental bug: second synthetic pass re-measured %d servers", synthSecond.Audited)
	}
	synthTally := synthAuditor.Store().Tally()
	fmt.Fprintf(os.Stderr, "synthetic: %d servers in %d batches over %v; heap baseline %.1f MB, peak %.1f MB (ceiling %.1f); peak live hosts %d (bound %d)\n",
		synthServers, synthStats.Batches, synthWall.Round(time.Millisecond), baseline, peak, ceiling, src.MaxLiveHosts(), liveBound)

	writeJSON(out, streamReport{
		Config: scale,
		Cores:  runtime.NumCPU(),

		Servers:          first.Total,
		Credible:         tally.Credible,
		Uncertain:        tally.Uncertain,
		False:            tally.False,
		SecondPassAudits: second.Audited,

		SynthServers:    synthServers,
		BatchSize:       batchSize,
		QueueDepth:      queueDepth,
		SynthWallMs:     float64(synthWall.Microseconds()) / 1000,
		SynthBatches:    synthStats.Batches,
		BaselineHeapMB:  baseline,
		PeakHeapMB:      peak,
		HeapCeilingMB:   ceiling,
		MaxLiveHosts:    src.MaxLiveHosts(),
		LiveHostBound:   liveBound,
		SynthCredible:   synthTally.Credible,
		SynthUncertain:  synthTally.Uncertain,
		SynthFalse:      synthTally.False,
		SynthSecondPass: synthSecond.Audited,
	})
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

type adversaryPointRow struct {
	Name             string  `json:"name"`
	Attack           string  `json:"attack"`
	ProxyFraction    float64 `json:"proxy_fraction"`
	Aggressiveness   float64 `json:"aggressiveness"`
	ByzantineFrac    float64 `json:"byzantine_fraction"`
	DetectOnly       bool    `json:"detect_only"`
	TP               int     `json:"tp"`
	FP               int     `json:"fp"`
	FN               int     `json:"fn"`
	TN               int     `json:"tn"`
	Unscored         int     `json:"unscored"`
	LandmarkTP       int     `json:"landmark_tp"`
	LandmarkFP       int     `json:"landmark_fp"`
	LandmarkFN       int     `json:"landmark_fn"`
	SuspectedServers int     `json:"suspected_servers"`
	FlaggedLandmarks int     `json:"flagged_landmarks"`
	ExcludedMeas     int     `json:"excluded_measurements"`
	AuditSHA         string  `json:"audit_sha256"`
}

type adversaryReport struct {
	Config  string `json:"config"`
	Cores   int    `json:"cores"`
	Servers int    `json:"servers"`
	Anchors int    `json:"anchors"`

	Points []adversaryPointRow `json:"points"`

	Precision         float64 `json:"precision"`
	Recall            float64 `json:"recall"`
	ProxyPrecision    float64 `json:"proxy_precision"`
	ProxyRecall       float64 `json:"proxy_recall"`
	LandmarkPrecision float64 `json:"landmark_precision"`
	LandmarkRecall    float64 `json:"landmark_recall"`

	PrecisionFloor float64 `json:"precision_floor"`
	RecallFloor    float64 `json:"recall_floor"`
	FloorsCleared  bool    `json:"floors_cleared"`

	SerialWallMs          float64 `json:"serial_wall_ms"`
	ParallelWallMs        float64 `json:"parallel_wall_ms"`
	ParallelWorkers       int     `json:"parallel_workers"`
	FingerprintsIdentical bool    `json:"fingerprints_identical"`
}

func runAdversary(out string) {
	const precisionFloor, recallFloor = 0.9, 0.8
	cfg := experiments.AdversaryBenchConfig()
	sweepAt := func(workers int) (*experiments.AdversaryResult, int, int, time.Duration) {
		c := cfg
		c.Concurrency = workers
		lab, err := experiments.NewLab(c)
		if err != nil {
			log.Fatalf("building lab (%d workers): %v", workers, err)
		}
		start := time.Now()
		res, err := lab.AdversarySweep(nil)
		if err != nil {
			log.Fatalf("adversary sweep (%d workers): %v", workers, err)
		}
		return res, len(lab.Fleet.Servers()), len(lab.Cons.Anchors()), time.Since(start)
	}

	serial, servers, anchors, serialWall := sweepAt(1)
	fmt.Fprintf(os.Stderr, "serial (1 worker):    %d attack points in %v\n", len(serial.Points), serialWall.Round(time.Millisecond))
	workers := runtime.GOMAXPROCS(0)
	parallel, _, _, parWall := sweepAt(workers)
	fmt.Fprintf(os.Stderr, "parallel (%d workers): %d attack points in %v\n", workers, len(parallel.Points), parWall.Round(time.Millisecond))

	if serial.Fingerprint() != parallel.Fingerprint() {
		log.Fatalf("determinism violation: adversary sweeps differ across concurrency\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Fingerprint(), parallel.Fingerprint())
	}
	fmt.Fprint(os.Stderr, serial.Render())

	rep := adversaryReport{
		Config:  "bench",
		Cores:   runtime.NumCPU(),
		Servers: servers,
		Anchors: anchors,

		Precision:         serial.Precision,
		Recall:            serial.Recall,
		ProxyPrecision:    serial.ProxyPrecision,
		ProxyRecall:       serial.ProxyRecall,
		LandmarkPrecision: serial.LandmarkPrecision,
		LandmarkRecall:    serial.LandmarkRecall,

		PrecisionFloor: precisionFloor,
		RecallFloor:    recallFloor,
		FloorsCleared:  serial.Precision >= precisionFloor && serial.Recall >= recallFloor,

		SerialWallMs:          float64(serialWall.Microseconds()) / 1000,
		ParallelWallMs:        float64(parWall.Microseconds()) / 1000,
		ParallelWorkers:       workers,
		FingerprintsIdentical: true,
	}
	for _, pt := range serial.Points {
		rep.Points = append(rep.Points, adversaryPointRow{
			Name:             pt.Name,
			Attack:           pt.Plan.Attack.String(),
			ProxyFraction:    pt.Plan.ProxyFraction,
			Aggressiveness:   pt.Plan.Aggressiveness,
			ByzantineFrac:    pt.Plan.ByzantineFraction,
			DetectOnly:       pt.Plan.DetectOnly,
			TP:               pt.TP,
			FP:               pt.FP,
			FN:               pt.FN,
			TN:               pt.TN,
			Unscored:         pt.Unscored,
			LandmarkTP:       pt.LandmarkTP,
			LandmarkFP:       pt.LandmarkFP,
			LandmarkFN:       pt.LandmarkFN,
			SuspectedServers: pt.SuspectedServers,
			FlaggedLandmarks: pt.FlaggedLandmarks,
			ExcludedMeas:     pt.ExcludedMeasurements,
			AuditSHA:         pt.AuditSHA,
		})
	}
	writeJSON(out, rep)
	if !rep.FloorsCleared {
		log.Fatalf("detection floors violated: precision %.3f (floor %.2f), recall %.3f (floor %.2f)",
			rep.Precision, precisionFloor, rep.Recall, recallFloor)
	}
	fmt.Fprintf(os.Stderr, "precision %.3f ≥ %.2f, recall %.3f ≥ %.2f; fingerprints identical; wrote %s\n",
		rep.Precision, precisionFloor, rep.Recall, recallFloor, out)
}

type constellationReport struct {
	Config     string `json:"config"`
	Cores      int    `json:"cores"`
	Landmarks  int    `json:"landmarks"`
	Shards     int    `json:"shards"`
	VNodes     int    `json:"virtual_nodes"`
	RingSeed   int64  `json:"ring_seed"`
	Clients    int    `json:"clients"`
	Iterations int    `json:"iterations"`

	// Ring partition of the landmark space, keyed by shard.
	LandmarkPartition map[string]int `json:"landmark_partition"`

	// Oracle (1 shard, serial, no hedging) vs concurrent fleet:
	OracleWallMs         float64          `json:"oracle_wall_ms"`
	FleetWallMs          float64          `json:"fleet_wall_ms"`
	ThroughputOps        float64          `json:"throughput_ops_per_sec"`
	P50Ms                float64          `json:"p50_ms"`
	P99Ms                float64          `json:"p99_ms"`
	Ops                  int              `json:"ops"`
	TranscriptsIdentical bool             `json:"transcripts_identical"`
	HedgesLaunched       int64            `json:"hedges_launched"`
	HedgesWon            int64            `json:"hedges_won"`
	PerShardFits         map[string]int64 `json:"per_shard_model_fits"`

	// Churn run: same workload with a mid-run shard drain plus an epoch
	// advance through the two-phase barrier.
	ChurnWallMs           float64 `json:"churn_wall_ms"`
	ChurnTranscriptsOK    bool    `json:"churn_transcripts_identical"`
	DrainedShard          string  `json:"drained_shard"`
	ReplayedReports       int     `json:"replayed_reports"`
	Failovers             int64   `json:"failovers"`
	EpochAfterChurn       int64   `json:"epoch_after_churn"`
	ChurnAccepted         int     `json:"churn_accepted_reports"`
	ChurnDropped          int     `json:"churn_dropped_reports"`
	ChurnPerShardDupes    int     `json:"churn_per_shard_duplicates"`
	ChurnCrossShardCopies int     `json:"churn_cross_shard_copies"`
}

// clusterLedgerDiff cross-checks client receipts against the merged
// fleet ledger: dropped counts receipts absent from every shard,
// perShardDupes counts keys some single shard ledgered twice (a broken
// dedupe), crossShard counts keys present on more than one shard
// (legitimate only transiently around a drain; reported, not fatal).
func clusterLedgerDiff(fleet *constellation.Cluster, res *loadgen.Result) (dropped, perShardDupes, crossShard int) {
	merged := fleet.MergedLedger()
	for _, st := range res.PerClient {
		for _, seq := range st.AcceptedSeqs {
			holders := merged[fmt.Sprintf("%s|%d", st.Client, seq)]
			if len(holders) == 0 {
				dropped++
				continue
			}
			if len(holders) > 1 {
				crossShard++
			}
			for _, n := range holders {
				if n > 1 {
					perShardDupes++
				}
			}
		}
	}
	return dropped, perShardDupes, crossShard
}

func runConstellation(scale, out string) {
	const seed = 2018
	const ringSeed, vnodes = 2018, 32
	shards := []string{"s0", "s1", "s2", "s3"}
	clients, iterations, secondPhase := 1200, 2, 8
	anchors, probes := 40, 30
	if scale == "paper" {
		clients, anchors, probes = 4000, 120, 200
	}

	simNet := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: anchors, Probes: probes, SamplesPerPair: 3}, rng)
	if err != nil {
		log.Fatalf("building constellation: %v", err)
	}
	hosts := make([]netsim.HostID, clients)
	for i := range hosts {
		id := netsim.HostID(fmt.Sprintf("fleet-client-%05d", i))
		loc := geo.Point{Lat: -55 + 120*rng.Float64(), Lon: -175 + 350*rng.Float64()}
		if err := simNet.AddHost(&netsim.Host{ID: id, Loc: loc}); err != nil {
			log.Fatalf("adding vantage host: %v", err)
		}
		hosts[i] = id
	}
	base := atlasd.Config{Seed: seed, Opts: cbg.Options{Slowline: true}, MaxInflight: 128}
	tool := &measure.CLITool{Net: cons.Net()}
	cfg := loadgen.ClusterConfig{Clients: clients, Iterations: iterations, SecondPhase: secondPhase, Seed: seed}
	ctx := context.Background()

	// 1. Single-shard serial oracle, hedging off.
	oracleFleet := constellation.NewCluster(cons, base, []string{"oracle"}, ringSeed, vnodes)
	oclient := oracleFleet.Client()
	oclient.NoHedge = true
	ocfg := cfg
	ocfg.Concurrency = 1
	oracle, err := (&loadgen.ClusterRunner{Coordinator: oclient, Tool: tool, Hosts: hosts}).Run(ctx, ocfg)
	if err != nil {
		log.Fatalf("oracle run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "oracle (1 shard, serial): %d ops in %.0f ms\n", oracle.Ops, oracle.WallMs)

	// 2. Concurrent run across the full fleet, hedging on.
	fleet := constellation.NewCluster(cons, base, shards, ringSeed, vnodes)
	res, err := (&loadgen.ClusterRunner{Coordinator: fleet.Client(), Tool: tool, Hosts: hosts}).Run(ctx, cfg)
	if err != nil {
		log.Fatalf("fleet run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "fleet (%d shards, %d clients): %d ops in %.0f ms (%.0f ops/s, p50 %.3f ms, p99 %.3f ms)\n",
		len(shards), clients, res.Ops, res.WallMs, res.ThroughputOps, res.P50Ms, res.P99Ms)
	if !loadgen.TranscriptsIdentical(oracle, res) {
		n := 0
		for i := range oracle.PerClient {
			if oracle.PerClient[i].TranscriptSHA != res.PerClient[i].TranscriptSHA {
				n++
			}
		}
		log.Fatalf("determinism violation: %d of %d fleet transcripts differ from the serial oracle", n, clients)
	}
	if d, p, _ := clusterLedgerDiff(fleet, res); d != 0 || p != 0 {
		log.Fatalf("fleet ledger mismatch: %d dropped, %d per-shard duplicates", d, p)
	}
	perShardFits := make(map[string]int64, len(shards))
	for _, name := range fleet.Members() {
		perShardFits[name] = fleet.Shard(name).Metrics().ModelCache.Fits
	}
	hedges := fleet.Telemetry().Count("constellation.hedge.launched")
	hedgeWins := fleet.Telemetry().Count("constellation.hedge.won")
	fmt.Fprintf(os.Stderr, "transcripts identical; hedges launched %d (won %d); per-shard fits %v\n",
		hedges, hedgeWins, perShardFits)

	// 3. Churn run on a fresh fleet: drain one shard once it has
	// ledgered reports, advance the fleet epoch through the barrier, all
	// while the load is running. Same oracle applies — the transcripts
	// are topology-independent by contract.
	churnFleet := constellation.NewCluster(cons, base, shards, ringSeed, vnodes)
	chaosErr := make(chan error, 1)
	drained := make(chan struct {
		shard    string
		replayed int
	}, 1)
	go func() {
		// Wait for some shard to have ledgered reports, then drain it.
		var victim string
		deadline := time.Now().Add(60 * time.Second)
		for victim == "" {
			if time.Now().After(deadline) {
				chaosErr <- fmt.Errorf("no shard ledgered a report within 60s")
				return
			}
			for _, name := range churnFleet.Members() {
				if srv := churnFleet.Shard(name); srv != nil && srv.Metrics().ReportsLedgered > 0 {
					victim = name
					break
				}
			}
			if victim == "" {
				time.Sleep(time.Millisecond)
			}
		}
		replayed, err := churnFleet.Drain(ctx, victim)
		if err != nil {
			chaosErr <- fmt.Errorf("draining %s: %w", victim, err)
			return
		}
		drained <- struct {
			shard    string
			replayed int
		}{victim, replayed}
		if _, err := churnFleet.Controller().AdvanceEpoch(ctx); err != nil {
			chaosErr <- fmt.Errorf("epoch barrier under load: %w", err)
			return
		}
		chaosErr <- nil
	}()
	churn, err := (&loadgen.ClusterRunner{Coordinator: churnFleet.Client(), Tool: tool, Hosts: hosts}).Run(ctx, cfg)
	if err != nil {
		log.Fatalf("churn run: %v", err)
	}
	if err := <-chaosErr; err != nil {
		log.Fatalf("churn scenario: %v", err)
	}
	dr := <-drained
	churnOK := loadgen.TranscriptsIdentical(oracle, churn)
	if !churnOK {
		n := 0
		for i := range oracle.PerClient {
			if oracle.PerClient[i].TranscriptSHA != churn.PerClient[i].TranscriptSHA {
				n++
			}
		}
		log.Fatalf("determinism violation under churn: %d of %d transcripts differ from the serial oracle", n, clients)
	}
	dropped, dupes, cross := clusterLedgerDiff(churnFleet, churn)
	if dropped != 0 || dupes != 0 {
		log.Fatalf("churn ledger mismatch: %d dropped, %d per-shard duplicates", dropped, dupes)
	}
	epoch := churnFleet.Epoch()
	failovers := churnFleet.Telemetry().Count("constellation.failover")
	fmt.Fprintf(os.Stderr, "churn: drained %s (replayed %d reports), advanced to epoch %d, %d failovers, transcripts identical, 0 dropped\n",
		dr.shard, dr.replayed, epoch, failovers)

	lmIDs := make([]netsim.HostID, 0, len(cons.All()))
	for _, lm := range cons.All() {
		lmIDs = append(lmIDs, lm.Host.ID)
	}
	writeJSON(out, constellationReport{
		Config:     scale,
		Cores:      runtime.NumCPU(),
		Landmarks:  len(lmIDs),
		Shards:     len(shards),
		VNodes:     vnodes,
		RingSeed:   ringSeed,
		Clients:    clients,
		Iterations: iterations,

		LandmarkPartition: fleet.Ring().Partition(lmIDs),

		OracleWallMs:         oracle.WallMs,
		FleetWallMs:          res.WallMs,
		ThroughputOps:        res.ThroughputOps,
		P50Ms:                res.P50Ms,
		P99Ms:                res.P99Ms,
		Ops:                  res.Ops,
		TranscriptsIdentical: true,
		HedgesLaunched:       hedges,
		HedgesWon:            hedgeWins,
		PerShardFits:         perShardFits,

		ChurnWallMs:           churn.WallMs,
		ChurnTranscriptsOK:    churnOK,
		DrainedShard:          dr.shard,
		ReplayedReports:       dr.replayed,
		Failovers:             failovers,
		EpochAfterChurn:       epoch,
		ChurnAccepted:         churn.AcceptedReports,
		ChurnDropped:          dropped,
		ChurnPerShardDupes:    dupes,
		ChurnCrossShardCopies: cross,
	})
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	mode := flag.String("mode", "audit", "what to benchmark: audit, locate, faults, stream, adversary, atlasd or constellation")
	scale := flag.String("scale", "quick", "audit scale: quick or paper")
	out := flag.String("out", "", "output JSON path (default BENCH_<mode>.json)")
	synthServers := flag.Int("servers", 100_000, "synthetic fleet size for -mode stream")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickConfig()
	case "paper":
		cfg = experiments.PaperConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	switch *mode {
	case "audit":
		if *out == "" {
			*out = "BENCH_audit.json"
		}
		runAudit(*scale, cfg, *out)
	case "locate":
		if *out == "" {
			*out = "BENCH_locate.json"
		}
		runLocate(*scale, cfg, *out)
	case "faults":
		if *out == "" {
			*out = "BENCH_faults.json"
		}
		runFaults(*scale, cfg, *out)
	case "stream":
		if *out == "" {
			*out = "BENCH_stream.json"
		}
		runStream(*scale, cfg, *synthServers, *out)
	case "adversary":
		if *out == "" {
			*out = "BENCH_adversary.json"
		}
		runAdversary(*out)
	case "atlasd":
		if *out == "" {
			*out = "BENCH_atlasd.json"
		}
		runAtlasd(*scale, *out)
	case "constellation":
		if *out == "" {
			*out = "BENCH_constellation.json"
		}
		runConstellation(*scale, *out)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}
