package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/experiments"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/hybrid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/octant"
	"activegeo/internal/refimpl"
	"activegeo/internal/spotter"
	"activegeo/internal/stream"
	"activegeo/internal/telemetry"
	"activegeo/internal/worldmap"
)

// workload is one set of inputs the benchmark runs: the lab it builds,
// the state it prepares on that lab, and the output a correct program
// produces at its default seed. The lab's geometry (landmarks, fleet,
// network paths) is fixed by config; the run's seed replaces the lab's
// seed once the lab is built, so it draws the measurement noise, the
// recorded vectors and the claim churn, while every seed does the same
// amount of work. The config's own seed is the default seed.
type workload struct {
	name    string
	config  func() experiments.Config
	prepare func(lab *experiments.Lab) (instance, error)
	pin     pin
}

// pin is a workload's known-good output at its default seed and
// configuration: a digest and the human-readable counts it implies.
type pin struct {
	digest  string
	summary string
}

// outcome is one round's result.
type outcome struct {
	wall       time.Duration // the round's work, without computing the digest
	items      int           // servers audited, Locate calls, or servers re-audited
	itemErrors int           // items whose pipeline ended in an error
	digest     string        // identical in every round of a correct run
}

// instance is a prepared workload on one lab.
type instance interface {
	// round runs one timed round. With a non-nil tracer it records spans
	// under parent and keeps what the per-layer metrics need.
	round(tr *tracer, parent *span) (outcome, error)
	// reference returns the digest and summary the pin is checked against.
	reference() (digest, summary string)
	// finish runs the end-of-run checks. With serial it also times one
	// round on a single worker and returns that round's wall time.
	finish(serial bool) (time.Duration, error)
}

// The fault rate and attack of audit-hostile; the layer probes arm the
// same ones when the workload's own lab runs without them.
const hostileLoss = 0.10

func hostilePlan() measure.AdversaryPlan {
	for _, p := range experiments.DefaultAttackMatrix() {
		if p.Name == "decoy-blend+byz" {
			return p.Plan
		}
	}
	panic("bench: attack point decoy-blend+byz is missing from the default matrix")
}

// churnShare is the share of the fleet stream-churn re-claims per pass:
// at 10% two runs disagreed by 20%, so passes carry twice that.
const churnShare = 0.20

func hostileConfig() experiments.Config {
	cfg := experiments.AdversaryBenchConfig()
	cfg.Faults = netsim.DefaultFaults(hostileLoss)
	return cfg
}

// workloads returns the benchmark's workloads in run order.
func workloads() []workload {
	return []workload{
		{
			name: "audit-quick", config: experiments.QuickConfig,
			prepare: func(lab *experiments.Lab) (instance, error) { return &auditRun{lab: lab}, nil },
			pin:     pin{"6020052eab5a3ddd629d37922f33437037d3f45be007aec1ba825ab81740bf08", "tally 166/25/161"},
		},
		{
			name: "locate-replay", config: experiments.QuickConfig, prepare: prepareReplay,
			pin: pin{"afd3290ff0d67f04f208b6a8984f009a31e30a9ca28bbb4de9bb53577e0d4217", "vectors 352 errors 0"},
		},
		{
			name: "audit-hostile", config: hostileConfig,
			prepare: func(lab *experiments.Lab) (instance, error) {
				plan := hostilePlan()
				lab.Adversary = &plan
				return &auditRun{lab: lab}, nil
			},
			pin: pin{"8a206aca0c122981c1f52a6d6de5be073a7adb59ae7060c0e35308b101609a77", "tally 35/26/58 suspected 26 flagged 7"},
		},
		{
			name: "stream-churn", config: experiments.QuickConfig,
			prepare: func(lab *experiments.Lab) (instance, error) {
				fleet := lab.StreamSource()
				return newChurn(lab, newClaimSource(fleet, fleet.Len()), 64)
			},
			pin: pin{"6020052eab5a3ddd629d37922f33437037d3f45be007aec1ba825ab81740bf08", "tally 166/25/161"},
		},
	}
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// parallel runs fn(i) for every i in [0, n) on workers goroutines and
// returns when all calls have completed.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// auditRun is audit-quick and audit-hostile: each round is one batch
// Lab.Audit over the whole fleet.
type auditRun struct {
	lab   *experiments.Lab
	first string // digest of the first round
	last  *experiments.AuditRun
	// traced holds each traced round's wall and CPU time and the audit's
	// own telemetry stages, for the per-layer breakdown.
	traced []stageRound
}

type stageRound struct {
	wall, cpu time.Duration
	stages    map[string]telemetry.Stage
}

func stageMap(c *telemetry.Collector) map[string]telemetry.Stage {
	out := map[string]telemetry.Stage{}
	for _, st := range c.Stages() {
		out[st.Name] = st
	}
	return out
}

func (a *auditRun) round(tr *tracer, parent *span) (outcome, error) {
	var before map[string]telemetry.Stage
	var cpu0 time.Duration
	if tr != nil {
		before, cpu0 = stageMap(a.lab.Telemetry), processCPU()
	}
	a.lab.ResetAudit()
	start := time.Now()
	sp := tr.start(parent, "experiments.Lab.Audit")
	run, err := a.lab.Audit()
	tr.end(sp)
	wall := time.Since(start)
	if err != nil {
		return outcome{}, fmt.Errorf("audit: %w", err)
	}
	if tr != nil {
		delta := stageMap(a.lab.Telemetry)
		for name, st := range delta {
			st.Wall -= before[name].Wall
			st.CPU -= before[name].CPU
			delta[name] = st
		}
		a.traced = append(a.traced, stageRound{wall: wall, cpu: processCPU() - cpu0, stages: delta})
	}
	a.last = run
	d := sha(experiments.Fingerprint(run))
	if a.first == "" {
		a.first = d
	}
	return outcome{wall: wall, items: len(run.Results), itemErrors: len(run.Errors), digest: d}, nil
}

func (a *auditRun) reference() (string, string) {
	t := assess.Tabulate(a.last.Results)
	s := fmt.Sprintf("tally %d/%d/%d", t.Credible, t.Uncertain, t.False)
	if a.last.AdversaryArmed {
		s += fmt.Sprintf(" suspected %d flagged %d", a.last.SuspectedServers, len(a.last.FlaggedLandmarks))
	}
	return a.first, s
}

// finish re-runs the audit on one worker: its output must equal the
// parallel rounds', byte for byte.
func (a *auditRun) finish(serial bool) (time.Duration, error) {
	if !serial {
		return 0, nil
	}
	a.lab.Cfg.Concurrency = 1
	defer func() { a.lab.Cfg.Concurrency = 0 }()
	out, err := a.round(nil, nil)
	if err != nil {
		return 0, err
	}
	if out.digest != a.first {
		return 0, fmt.Errorf("single-worker audit %s differs from the parallel audit %s", out.digest, a.first)
	}
	return out.wall, nil
}

// namedAlg is a localization algorithm under its metric key.
type namedAlg struct {
	key  string
	span string
	alg  geoloc.Algorithm
}

func named(cbgA, octantA, spotterA, hybridA, cbgppA geoloc.Algorithm) []namedAlg {
	algs := []namedAlg{{key: "cbg", alg: cbgA}, {key: "octant", alg: octantA}, {key: "spotter", alg: spotterA},
		{key: "hybrid", alg: hybridA}, {key: "cbgpp", alg: cbgppA}}
	for i := range algs {
		algs[i].span = "geoloc.Locate." + algs[i].key
	}
	return algs
}

func labAlgorithms(lab *experiments.Lab) []namedAlg {
	return named(lab.CBG, lab.Octant, lab.Spotter, lab.Hybrid, lab.CBGpp)
}

// replayRun is locate-replay: the fleet's two-phase vectors, recorded
// once, localized by all five algorithms on a paper-resolution grid.
type replayRun struct {
	env     *geoloc.Env
	algs    []namedAlg
	refs    []referenceAlg // algs[i]'s pre-kernel implementation
	vecs    [][]geoloc.Measurement
	workers int
	// first and firstErrors are the first round's digest and error count.
	first       string
	firstErrors int
}

func prepareReplay(lab *experiments.Lab) (instance, error) {
	servers := lab.Fleet.Servers()
	ids := make([]netsim.HostID, len(servers))
	for i, s := range servers {
		ids[i] = s.Host.ID
	}
	batch := &measure.Batch{Cons: lab.Cons, Client: lab.Client, Eta: measure.DefaultEta, Concurrency: lab.Concurrency(), Seed: lab.Cfg.Seed}
	r := &replayRun{workers: lab.Concurrency()}
	for _, br := range batch.Run(context.Background(), ids) {
		if br.Err == nil {
			r.vecs = append(r.vecs, br.Result.Measurements())
		}
	}
	r.env = geoloc.NewEnv(experiments.PaperConfig().GridResDeg)
	cbgCal, err := cbg.Calibrate(lab.Cons, cbg.Options{})
	if err != nil {
		return nil, err
	}
	octCal, err := octant.Calibrate(lab.Cons)
	if err != nil {
		return nil, err
	}
	model, err := spotter.Calibrate(lab.Cons)
	if err != nil {
		return nil, err
	}
	ppCal, err := cbgpp.Calibrate(lab.Cons, cbgpp.Options{})
	if err != nil {
		return nil, err
	}
	r.algs = named(cbg.New(r.env, cbgCal), octant.New(r.env, octCal), spotter.New(r.env, model),
		hybrid.New(r.env, model), cbgpp.New(r.env, ppCal, cbgpp.Options{}))
	// Tolerances as internal/refimpl's equivalence test allows them:
	// Spotter's mass cutoff can move a few trailing cells of a large region.
	exact := func(int) int { return 2 }
	r.refs = []referenceAlg{
		{&refimpl.CBG{Env: r.env, Cal: cbgCal}, exact},
		{&refimpl.Octant{Env: r.env, Cal: octCal}, exact},
		{&refimpl.Spotter{Env: r.env, Model: model}, func(n int) int { return 3 + n/100 }},
		{&refimpl.Hybrid{Env: r.env, Model: model}, exact},
		{&refimpl.CBGPP{Env: r.env, Cal: ppCal}, exact},
	}
	return r, nil
}

// referenceAlg is a pre-kernel implementation of one algorithm and the
// number of boundary-tie cells its regions may differ from the kernel's
// by, given the reference region's size.
type referenceAlg struct {
	alg geoloc.Algorithm
	tol func(cells int) int
}

// referenceSample is how many recorded vectors the end-of-run check
// localizes again with every reference implementation.
const referenceSample = 4

// checkReference holds the kernel to the pre-kernel implementations in
// internal/refimpl, which share no fast-path geometry with it, on an even
// sample of the recorded vectors. This is the output check that holds at
// every seed, not only at the pinned one.
func (r *replayRun) checkReference() error {
	for s := 0; s < referenceSample; s++ {
		v := r.vecs[s*len(r.vecs)/referenceSample]
		for i, a := range r.algs {
			got, err := a.alg.Locate(v)
			want, refErr := r.refs[i].alg.Locate(v)
			if (err == nil) != (refErr == nil) {
				return fmt.Errorf("%s: kernel error %v, reference error %v", a.key, err, refErr)
			}
			if err != nil {
				continue
			}
			if err := sameRegion(r.env.Grid, want, got, r.refs[i].tol(want.Count())); err != nil {
				return fmt.Errorf("%s differs from its reference: %w", a.key, err)
			}
		}
	}
	return nil
}

// sameRegion accepts got when it equals want, or differs by at most tol
// cells, each within one and a half cell diagonals of the other region.
func sameRegion(g *grid.Grid, want, got *grid.Region, tol int) error {
	var onlyWant, onlyGot []int
	want.Each(func(c int) {
		if !got.Contains(c) {
			onlyWant = append(onlyWant, c)
		}
	})
	got.Each(func(c int) {
		if !want.Contains(c) {
			onlyGot = append(onlyGot, c)
		}
	})
	if n := len(onlyWant) + len(onlyGot); n > tol {
		return fmt.Errorf("%d cells only in the reference region, %d only in the kernel's (reference %d cells, tolerance %d)",
			len(onlyWant), len(onlyGot), want.Count(), tol)
	}
	diag := 1.5 * 111.195 * g.Resolution()
	for _, c := range onlyWant {
		if d := got.DistanceToPointKm(g.Center(c)); d > diag {
			return fmt.Errorf("reference-only cell %d lies %.0f km from the kernel region (at most %.0f)", c, d, diag)
		}
	}
	for _, c := range onlyGot {
		if d := want.DistanceToPointKm(g.Center(c)); d > diag {
			return fmt.Errorf("kernel-only cell %d lies %.0f km from the reference region (at most %.0f)", c, d, diag)
		}
	}
	return nil
}

func (r *replayRun) round(tr *tracer, parent *span) (outcome, error) {
	return r.replay(tr, parent, r.workers)
}

func (r *replayRun) replay(tr *tracer, parent *span, workers int) (outcome, error) {
	n := len(r.algs) * len(r.vecs)
	regions := make([]*grid.Region, n)
	errs := make([]error, n)
	start := time.Now()
	parallel(n, workers, func(i int) {
		a := r.algs[i/len(r.vecs)]
		sp := tr.start(parent, a.span)
		regions[i], errs[i] = a.alg.Locate(r.vecs[i%len(r.vecs)])
		tr.end(sp)
	})
	wall := time.Since(start)

	// The digest folds a 64-bit FNV-1a hash of every region's cell set
	// (or its error) in algorithm-then-vector order.
	h := sha256.New()
	var buf [8]byte
	nErr := 0
	for i, reg := range regions {
		if i%len(r.vecs) == 0 {
			h.Write([]byte(r.algs[i/len(r.vecs)].key))
		}
		if errs[i] != nil {
			nErr++
			h.Write([]byte(errs[i].Error()))
			continue
		}
		cells := uint64(14695981039346656037)
		reg.Each(func(c int) {
			cells ^= uint64(c)
			cells *= 1099511628211
		})
		binary.LittleEndian.PutUint64(buf[:], cells)
		h.Write(buf[:])
	}
	d := hex.EncodeToString(h.Sum(nil))
	if r.first == "" {
		r.first, r.firstErrors = d, nErr
	}
	return outcome{wall: wall, items: n, itemErrors: nErr, digest: d}, nil
}

func (r *replayRun) reference() (string, string) {
	return r.first, fmt.Sprintf("vectors %d errors %d", len(r.vecs), r.firstErrors)
}

func (r *replayRun) finish(serial bool) (time.Duration, error) {
	if err := r.checkReference(); err != nil {
		return 0, err
	}
	if !serial {
		return 0, nil
	}
	out, err := r.replay(nil, nil, 1)
	if err != nil {
		return 0, err
	}
	if out.digest != r.first {
		return 0, fmt.Errorf("single-worker replay %s differs from the parallel replay %s", out.digest, r.first)
	}
	return out.wall, nil
}

// claimSource is a fleet whose claimed countries the benchmark rewrites
// between streaming passes.
type claimSource struct {
	specs []stream.ServerSpec
	codes []string
}

// newClaimSource copies the first n specs of base (all when n ≥ its length).
func newClaimSource(base stream.Source, n int) *claimSource {
	n = min(n, base.Len())
	s := &claimSource{specs: make([]stream.ServerSpec, n)}
	for i := range s.specs {
		s.specs[i] = base.Spec(i)
	}
	for _, c := range worldmap.Countries() {
		s.codes = append(s.codes, c.Code)
	}
	return s
}

func (s *claimSource) Len() int                     { return len(s.specs) }
func (s *claimSource) Spec(i int) stream.ServerSpec { return s.specs[i] }

// reclaim gives k distinct servers, drawn from rng, each a claimed
// country other than its current one.
func (s *claimSource) reclaim(rng *rand.Rand, k int) {
	for _, i := range rng.Perm(len(s.specs))[:k] {
		j := rng.Intn(len(s.codes) - 1)
		if s.codes[j] == s.specs[i].Claimed {
			j = len(s.codes) - 1
		}
		s.specs[i].Claimed = s.codes[j]
	}
}

// churnRun is stream-churn: each round re-claims a fixed share of the
// fleet and runs one streaming pass, which must re-audit exactly those
// servers and skip the rest.
type churnRun struct {
	lab     *experiments.Lab
	aud     *stream.Auditor
	tel     *telemetry.Collector // the auditor's collector; nil when untraced
	src     *claimSource
	batch   int
	k       int
	pass    int64
	initial string // digest of the store after the first full pass
	tally   string
	passes  []passRecord
}

type passRecord struct {
	wall    time.Duration
	batchMs float64 // summed batch time inside the pass
	stats   stream.PassStats
}

// newChurn builds a streaming auditor over src and runs its first full
// pass, which the workload counts as set-up.
func newChurn(lab *experiments.Lab, src *claimSource, batch int) (*churnRun, error) {
	c := &churnRun{lab: lab, tel: lab.Telemetry, src: src, batch: batch,
		k: int(math.Round(churnShare * float64(src.Len())))}
	c.aud = lab.StreamingAuditor(batch, 2)
	if _, err := c.aud.Sync(context.Background(), src); err != nil {
		return nil, fmt.Errorf("first full pass: %w", err)
	}
	st := c.aud.Store()
	c.initial = sha(st.Fingerprint())
	t := st.Tally()
	c.tally = fmt.Sprintf("tally %d/%d/%d", t.Credible, t.Uncertain, t.False)
	return c, nil
}

func (c *churnRun) reclaim() {
	c.pass++
	c.src.reclaim(rand.New(rand.NewSource(c.lab.Cfg.Seed*1000003+c.pass)), c.k)
}

func (c *churnRun) round(tr *tracer, parent *span) (outcome, error) {
	c.reclaim()
	batch0 := c.batchMs()
	start := time.Now()
	sp := tr.start(parent, "stream.Auditor.Sync")
	st, err := c.aud.Sync(context.Background(), c.src)
	tr.end(sp)
	wall := time.Since(start)
	if err != nil {
		return outcome{}, fmt.Errorf("pass %d: %w", c.pass, err)
	}
	if st.Audited != c.k || st.Skipped != st.Total-c.k {
		return outcome{}, fmt.Errorf("pass %d audited %d and skipped %d of %d servers, want %d re-claimed audited and the rest skipped",
			c.pass, st.Audited, st.Skipped, st.Total, c.k)
	}
	if tr != nil {
		c.passes = append(c.passes, passRecord{wall: wall, batchMs: c.batchMs() - batch0, stats: st})
	}
	fs := c.aud.Store().Stats()
	return outcome{wall: wall, items: st.Audited, itemErrors: fs.MeasureFailures + fs.LocateFailures,
		digest: fmt.Sprintf("audited %d skipped %d", st.Audited, st.Skipped)}, nil
}

func (c *churnRun) batchMs() float64 {
	d, _ := c.tel.Distribution("stream.batch.ms")
	return d.Sum
}

func (c *churnRun) reference() (string, string) { return c.initial, c.tally }

// finish audits the final claims afresh in one full pass: the store the
// incremental passes built must be identical to it. With serial the fresh
// auditor runs on one worker and then times one churn pass.
func (c *churnRun) finish(serial bool) (time.Duration, error) {
	saved := c.lab.Telemetry
	c.lab.Telemetry = nil // keep the check's batches out of the traced distributions
	defer func() { c.lab.Telemetry = saved }()
	if serial {
		c.lab.Cfg.Concurrency = 1
		defer func() { c.lab.Cfg.Concurrency = 0 }()
	}
	fresh := c.lab.StreamingAuditor(c.batch, 2)
	if _, err := fresh.Sync(context.Background(), c.src); err != nil {
		return 0, fmt.Errorf("fresh full pass: %w", err)
	}
	if got, want := sha(fresh.Store().Fingerprint()), sha(c.aud.Store().Fingerprint()); got != want {
		return 0, fmt.Errorf("fresh full pass over the final claims gives store %s, the incremental passes %s", got, want)
	}
	if !serial {
		return 0, nil
	}
	c.reclaim()
	start := time.Now()
	st, err := fresh.Sync(context.Background(), c.src)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if st.Audited != c.k {
		return 0, fmt.Errorf("single-worker pass audited %d servers, want %d", st.Audited, c.k)
	}
	return wall, nil
}
