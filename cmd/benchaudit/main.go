// Command benchaudit runs the certification benchmarks that the bench/
// module does not cover and writes each one's numbers as JSON.
//
// Usage:
//
//	benchaudit -mode faults|stream|adversary|atlasd [-out FILE]
//
// Every mode writes one report, to BENCH_<mode>.json unless -out names
// another file: the mode, an env block (cores, GOMAXPROCS, Go version,
// VCS revision), a metrics map, and the checks the mode gates on, each
// {name, value, bound, pass}. A check named *_max passes when value ≤
// bound, *_min when value ≥ bound, and *_mismatch (1 when two runs
// differ) when it is 0. The faults and adversary reports add the sweep's
// points as internal/experiments returns them. The report is written
// even when a check fails; the command then exits 1.
//
//   - faults: the robustness sweep (experiments.Robustness). Up to the
//     documented loss threshold, each verdict bucket stays within ±15%
//     of the fleet of the fault-free tally (DESIGN.md §10).
//   - stream: a second pass over the unchanged quick fleet audits
//     nothing; a synthetic 100,000-server fleet streams through bounded
//     batches with its peak live heap ≤ baseline + 128 MiB, at most
//     (queue depth + 2) batches of hosts provisioned at once, and a
//     second pass that audits nothing (DESIGN.md §12).
//   - adversary: the default attack matrix at AdversaryBenchConfig,
//     serially and at GOMAXPROCS on fresh labs: identical fingerprints,
//     pooled precision ≥ 0.9 and recall ≥ 0.8 (DESIGN.md §14).
//   - atlasd: 32 closed-loop clients against an in-process coordination
//     server, serially and concurrently on fresh servers: identical
//     transcripts, an exactly-once report ledger, at most one model fit
//     per landmark plus the pooled fallback; then a mid-soak drain that
//     drops and invents no report (DESIGN.md §11).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"activegeo/internal/atlas"
	"activegeo/internal/atlasd"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/loadgen"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/stream"
)

// report is the one JSON schema every mode writes.
type report struct {
	Mode    string             `json:"mode"`
	Env     env                `json:"env"`
	Metrics map[string]float64 `json:"metrics"`
	Checks  []check            `json:"checks"`
	Points  any                `json:"points,omitempty"`
}

type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

type check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// check records one gate of the run. A failed check does not stop the
// mode: run writes the whole report and then fails.
func (r *report) check(name string, value, bound float64, pass bool) {
	r.Checks = append(r.Checks, check{Name: name, Value: value, Bound: bound, Pass: pass})
	fmt.Fprintf(os.Stderr, "check %-30s %12.4f  bound %-10g pass %t\n", name, value, bound, pass)
}

// mismatch is the value of a *_mismatch check: 0 when two runs agree.
func mismatch(same bool) float64 {
	if same {
		return 0
	}
	return 1
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// revision names the commit checked out in the working directory, with
// "+dirty" for uncommitted changes, or "unknown" outside a git checkout.
// It asks git because go run stamps no VCS settings into the binary.
func revision() string {
	out, err := exec.Command("git", "describe", "--always", "--abbrev=40", "--exclude=*", "--dirty=+dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runFaults(r *report) error {
	lab, err := experiments.NewLab(experiments.QuickConfig())
	if err != nil {
		return err
	}
	const crowdHosts = 8
	start := time.Now()
	res, err := lab.Robustness(nil, crowdHosts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Fprint(os.Stderr, res.Render())

	r.Metrics["servers"] = float64(len(lab.Fleet.Servers()))
	r.Metrics["crowd_hosts"] = float64(res.CrowdHosts)
	r.Metrics["loss_threshold"] = experiments.RobustnessLossThreshold
	r.Metrics["wall_ms"] = ms(wall)
	r.Points = res.Points

	const tol = experiments.RobustnessTallyTolerance
	base := res.Points[0].Tally
	for _, p := range res.Points {
		if p.Loss > experiments.RobustnessLossThreshold {
			continue
		}
		drift := 0
		for _, d := range []int{p.Tally.Credible - base.Credible, p.Tally.Uncertain - base.Uncertain, p.Tally.False - base.False} {
			drift = max(drift, d, -d)
		}
		r.check(fmt.Sprintf("loss_%.2f_tally_drift_max", p.Loss),
			float64(drift)/float64(base.Total()), tol, p.WithinTolerance(base, tol))
	}
	return nil
}

// heapMB returns the current live-heap size in MiB after a collection,
// so batch-to-batch samples measure retained state, not GC phase.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func runStream(r *report) error {
	workers := runtime.GOMAXPROCS(0)
	cfg := experiments.QuickConfig()
	cfg.Concurrency = workers
	ctx := context.Background()

	// Part 1: a second pass over the unchanged quick fleet re-measures
	// nothing.
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	auditor := lab.StreamingAuditor(0, 0)
	first, err := auditor.Sync(ctx, lab.StreamSource())
	if err != nil {
		return err
	}
	second, err := auditor.Sync(ctx, lab.StreamSource())
	if err != nil {
		return err
	}
	tally := auditor.Store().Tally()
	r.Metrics["servers"] = float64(first.Total)
	r.Metrics["credible"] = float64(tally.Credible)
	r.Metrics["uncertain"] = float64(tally.Uncertain)
	r.Metrics["false"] = float64(tally.False)
	r.check("quick_second_pass_audits_max", float64(second.Audited), 0, second.Audited == 0)

	// Part 2: bounded memory on a synthetic fleet far larger than RAM
	// would allow if the pipeline materialized it.
	const synthServers, batchSize, queueDepth = 100_000, 256, 2
	simNet := netsim.New(9090)
	rng := rand.New(rand.NewSource(9090))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: 24, Probes: 12, SamplesPerPair: 3}, rng)
	if err != nil {
		return err
	}
	geoEnv := geoloc.NewEnv(4)
	cal, err := cbgpp.Calibrate(cons, cbgpp.Options{})
	if err != nil {
		return err
	}
	client := netsim.HostID("stream-bench-client")
	if err := simNet.AddHost(&netsim.Host{ID: client, Loc: geo.Point{Lat: 50.11, Lon: 8.68}, AccessDelayMs: 1}); err != nil {
		return err
	}
	src := stream.NewSynthSource(simNet, synthServers, 777)

	baseline := heapMB()
	ceiling := baseline + 128
	peak := baseline
	var mu sync.Mutex
	synthAuditor := stream.New(stream.Config{
		Cons:        cons,
		Client:      client,
		Env:         geoEnv,
		Locator:     cbgpp.New(geoEnv, cal, cbgpp.Options{}),
		Seed:        4242,
		Concurrency: workers,
		BatchSize:   batchSize,
		QueueDepth:  queueDepth,
		OnBatchDone: func(stream.BatchStats) {
			h := heapMB()
			mu.Lock()
			peak = max(peak, h)
			mu.Unlock()
		},
	})
	start := time.Now()
	synthStats, err := synthAuditor.Sync(ctx, src)
	if err != nil {
		return err
	}
	synthWall := time.Since(start)
	synthSecond, err := synthAuditor.Sync(ctx, src)
	if err != nil {
		return err
	}
	synthTally := synthAuditor.Store().Tally()
	fmt.Fprintf(os.Stderr, "synthetic: %d servers in %d batches over %v\n",
		synthServers, synthStats.Batches, synthWall.Round(time.Millisecond))

	r.Metrics["synth_servers"] = synthServers
	r.Metrics["batch_size"] = batchSize
	r.Metrics["queue_depth"] = queueDepth
	r.Metrics["synth_wall_ms"] = ms(synthWall)
	r.Metrics["synth_batches"] = float64(synthStats.Batches)
	r.Metrics["baseline_heap_mb"] = baseline
	r.Metrics["synth_credible"] = float64(synthTally.Credible)
	r.Metrics["synth_uncertain"] = float64(synthTally.Uncertain)
	r.Metrics["synth_false"] = float64(synthTally.False)
	r.check("synth_peak_heap_mb_max", peak, ceiling, peak <= ceiling)
	const liveBound = (queueDepth + 2) * batchSize
	r.check("synth_live_hosts_max", float64(src.MaxLiveHosts()), liveBound, src.MaxLiveHosts() <= liveBound)
	r.check("synth_second_pass_audits_max", float64(synthSecond.Audited), 0, synthSecond.Audited == 0)
	return nil
}

func runAdversary(r *report) error {
	const precisionFloor, recallFloor = 0.9, 0.8
	sweepAt := func(workers int) (*experiments.AdversaryResult, *experiments.Lab, time.Duration, error) {
		cfg := experiments.AdversaryBenchConfig()
		cfg.Concurrency = workers
		lab, err := experiments.NewLab(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		res, err := lab.AdversarySweep(nil)
		return res, lab, time.Since(start), err
	}

	serial, lab, serialWall, err := sweepAt(1)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	parallel, _, parWall, err := sweepAt(workers)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, serial.Render())

	r.Metrics["servers"] = float64(len(lab.Fleet.Servers()))
	r.Metrics["anchors"] = float64(len(lab.Cons.Anchors()))
	r.Metrics["proxy_precision"] = serial.ProxyPrecision
	r.Metrics["proxy_recall"] = serial.ProxyRecall
	r.Metrics["landmark_precision"] = serial.LandmarkPrecision
	r.Metrics["landmark_recall"] = serial.LandmarkRecall
	r.Metrics["serial_wall_ms"] = ms(serialWall)
	r.Metrics["parallel_wall_ms"] = ms(parWall)
	r.Metrics["parallel_workers"] = float64(workers)
	r.Points = serial.Points

	same := serial.Fingerprint() == parallel.Fingerprint()
	r.check("fingerprint_mismatch", mismatch(same), 0, same)
	r.check("precision_min", serial.Precision, precisionFloor, serial.Precision >= precisionFloor)
	r.check("recall_min", serial.Recall, recallFloor, serial.Recall >= recallFloor)
	return nil
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

func runAtlasd(r *report) error {
	const seed, clients, iterations, secondPhase = 2018, 32, 3, 8

	simNet := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: 40, Probes: 30, SamplesPerPair: 3}, rng)
	if err != nil {
		return err
	}
	hosts := make([]netsim.HostID, clients)
	for i := range hosts {
		id := netsim.HostID(fmt.Sprintf("bench-client-%04d", i))
		loc := geo.Point{Lat: -55 + 120*rng.Float64(), Lon: -175 + 350*rng.Float64()}
		if err := simNet.AddHost(&netsim.Host{ID: id, Loc: loc}); err != nil {
			return err
		}
		hosts[i] = id
	}

	newServer := func(maxInflight int) *atlasd.Server {
		return atlasd.NewServer(cons, atlasd.Config{Seed: seed, Opts: cbg.Options{Slowline: true}, MaxInflight: maxInflight})
	}
	newRunner := func(srv *atlasd.Server) *loadgen.Runner {
		return &loadgen.Runner{Handler: srv.Handler(), Tool: &measure.CLITool{Net: cons.Net()}, Hosts: hosts}
	}
	cfg := loadgen.Config{Clients: clients, Iterations: iterations, SecondPhase: secondPhase, Seed: seed}
	ctx := context.Background()

	// 1. Serial reference run on a fresh server.
	serialCfg := cfg
	serialCfg.Concurrency = 1
	serial, err := newRunner(newServer(0)).Run(ctx, serialCfg)
	if err != nil {
		return err
	}

	// 2. Fully concurrent run on another fresh server.
	concSrv := newServer(0)
	conc, err := newRunner(concSrv).Run(ctx, cfg)
	if err != nil {
		return err
	}
	cache := concSrv.Metrics().ModelCache
	landmarks := len(cons.All())
	r.Metrics["landmarks"] = float64(landmarks)
	r.Metrics["clients"] = clients
	r.Metrics["iterations"] = iterations
	r.Metrics["second_phase"] = secondPhase
	r.Metrics["max_inflight"] = atlasd.DefaultMaxInflight
	r.Metrics["ops"] = float64(conc.Ops)
	r.Metrics["serial_wall_ms"] = serial.WallMs
	r.Metrics["concurrent_wall_ms"] = conc.WallMs
	r.Metrics["throughput_ops_per_sec"] = conc.ThroughputOps
	r.Metrics["p50_ms"] = conc.P50Ms
	r.Metrics["p99_ms"] = conc.P99Ms
	r.Metrics["shed"] = float64(conc.Shed)
	r.Metrics["shed_rate"] = conc.ShedRate()
	r.Metrics["model_cache_hits"] = float64(cache.Hits)
	r.Metrics["model_coalesced"] = float64(cache.Coalesced)
	same := loadgen.TranscriptsIdentical(serial, conc)
	r.check("transcript_mismatch", mismatch(same), 0, same)
	dropped, phantom := ledgerDiff(concSrv, conc)
	r.check("ledger_dropped_max", float64(dropped), 0, dropped == 0)
	r.check("ledger_phantom_max", float64(phantom), 0, phantom == 0)
	maxFits := int64(landmarks + 1)
	r.check("model_fits_max", float64(cache.Fits), float64(maxFits), cache.Fits <= maxFits)

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
			return errors.New("shutdown scenario never ledgered a first round of reports")
		}
		time.Sleep(2 * time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := drainSrv.Drain(drainCtx); err != nil {
		return err
	}
	drained := <-resc
	if err := <-errc; err != nil {
		return err
	}
	stopped := 0
	for _, st := range drained.PerClient {
		if st.DrainStopped {
			stopped++
		}
	}
	r.Metrics["drain_stopped_clients"] = float64(stopped)
	r.Metrics["drain_accepted_reports"] = float64(drained.AcceptedReports)
	r.Metrics["duplicate_reports"] = float64(drainSrv.Metrics().DuplicateReports)
	dropped, phantom = ledgerDiff(drainSrv, drained)
	r.check("drain_dropped_max", float64(dropped), 0, dropped == 0)
	r.check("drain_phantom_max", float64(phantom), 0, phantom == 0)
	return nil
}

// modes maps each -mode value to its benchmark.
var modes = map[string]func(*report) error{
	"faults":    runFaults,
	"stream":    runStream,
	"adversary": runAdversary,
	"atlasd":    runAtlasd,
}

// run executes one benchmark and writes its report to out. A pipeline
// error returns before anything is written; failed checks return an
// error after the report is written.
func run(mode string, bench func(*report) error, out string) error {
	r := &report{
		Mode: mode,
		Env: env{
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Revision:   revision(),
		},
		Metrics: map[string]float64{},
	}
	if err := bench(r); err != nil {
		return fmt.Errorf("mode %s: %w", mode, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	failed := 0
	for _, c := range r.Checks {
		if !c.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("mode %s: %d of %d checks failed; report written to %s", mode, failed, len(r.Checks), out)
	}
	fmt.Fprintf(os.Stderr, "mode %s: %d checks passed; wrote %s\n", mode, len(r.Checks), out)
	return nil
}

func main() {
	mode := flag.String("mode", "", "benchmark to run: faults, stream, adversary or atlasd")
	out := flag.String("out", "", "output JSON path (default BENCH_<mode>.json)")
	flag.Parse()
	bench, ok := modes[*mode]
	if !ok || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchaudit: unknown mode %q\n", *mode)
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *mode + ".json"
	}
	if err := run(*mode, bench, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchaudit:", err)
		os.Exit(1)
	}
}
