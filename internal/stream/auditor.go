package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/atlas"
	"activegeo/internal/detect"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/telemetry"
)

// Config parameterizes a streaming Auditor. Seed is the base seed of
// the per-server measurement streams: each server's randomness is
// measure.StreamSeed(Seed, id), so its verdict does not depend on which
// batch carries it. Each batch measures under
// measure.PolicyFor(Cons.Net()), read when the batch forms, so
// re-arming faults mid-run takes effect on the next batch.
type Config struct {
	Cons    *atlas.Constellation
	Client  netsim.HostID
	Env     *geoloc.Env
	Locator geoloc.Algorithm

	// Seed is the base seed of the per-server measurement streams.
	Seed int64
	// Concurrency bounds the measurement and assessment pools inside
	// one batch (0 = GOMAXPROCS). Results are identical at any width.
	Concurrency int
	// BatchSize is the number of servers measured per batch (default
	// 64). Peak transient memory is O(QueueDepth × BatchSize).
	BatchSize int
	// QueueDepth bounds the batches buffered between the feeder and the
	// measuring worker (default 2). The feeder blocks when the queue is
	// full — backpressure, not accumulation.
	QueueDepth int

	// Adversary, when armed, switches the detection layer on: the
	// calibration mesh is cross-validated before each pass, flagged
	// landmarks' reports are dropped from every server's localization
	// inputs, and each verdict carries a manipulation inspection judged
	// against the whole store's population after the pass. nil (or a
	// disabled plan) keeps the pipeline byte-identical to the honest
	// engine.
	Adversary *measure.AdversaryPlan

	// Telemetry receives the audit.* stage spans, progress and
	// counters, queue-depth and batch-latency distributions, and the
	// audited/skipped counters (nil discards).
	Telemetry *telemetry.Collector

	// OnBatchDone, if non-nil, is called synchronously from the worker
	// after each batch is written to the store, with no measurement in
	// flight — the safe point to apply constellation churn mid-pass.
	OnBatchDone func(BatchStats)
}

// ServerError records why one server produced no prediction region: its
// measurement failed outright or left too few usable samples
// (StageMeasure), or localization failed on the samples it did produce
// (StageLocate).
type ServerError struct {
	Stage string
	Err   error
}

// BatchStats describes one batch written to the store.
type BatchStats struct {
	Pass    uint32
	Index   int // batch number within the pass, 0-based
	Servers int
	WallMs  float64
	// Results are the batch's assessments in source order, regions
	// included. Their Verdict and ProbableCountry are pre-group and
	// their manipulation fields unset: the pass's whole-store
	// resolution writes the final values to the store, not here.
	Results []*assess.Result
	// Errors[i] is why Results[i] has an empty region (nil if located).
	Errors []*ServerError
}

// PassStats summarizes one Sync pass.
type PassStats struct {
	Total   int // servers enumerated from the source
	Audited int // servers measured and written to the store this pass
	Skipped int // servers whose dependency signature was unchanged
	Batches int
}

// Auditor runs streaming audit passes against a Store.
type Auditor struct {
	cfg   Config
	store *Store
	pass  uint32

	// lmReport is the current pass's landmark cross-validation (nil when
	// the adversary layer is disarmed). It is a function of the mesh and
	// the plan alone, so Sync recomputes it only when the constellation
	// epoch or the plan signature it was computed under (lmEpoch, lmPlan)
	// has moved: churn re-judges the mesh, a claim change does not.
	lmReport        *detect.LandmarkReport
	lmEpoch, lmPlan uint64
}

// New builds an Auditor over a fresh store.
func New(cfg Config) *Auditor {
	return &Auditor{cfg: cfg, store: NewStore()}
}

// Store exposes the verdict store.
func (a *Auditor) Store() *Store { return a.store }

// Landmarks returns the last pass's landmark cross-validation report
// (nil when the adversary layer is disarmed).
func (a *Auditor) Landmarks() *detect.LandmarkReport { return a.lmReport }

func (a *Auditor) concurrency() int {
	if a.cfg.Concurrency > 0 {
		return a.cfg.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

func (a *Auditor) batchSize() int {
	if a.cfg.BatchSize > 0 {
		return a.cfg.BatchSize
	}
	return 64
}

func (a *Auditor) queueDepth() int {
	if a.cfg.QueueDepth > 0 {
		return a.cfg.QueueDepth
	}
	return 2
}

// signature folds everything a server's verdict depends on — the
// constellation epoch (landmark set + calibration generation), the fault
// ledger, and the server's own claim metadata — into one dependency
// stamp. A stored verdict is current iff its stamp matches.
func (a *Auditor) signature(spec ServerSpec) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		mix(uint64(len(s)))
	}
	mix(a.cfg.Cons.Epoch())
	mix(a.cfg.Cons.Net().Faults().Signature())
	// Arming, disarming or re-tuning the adversary plan changes what a
	// verdict means, so it dirties every row (nil and the zero plan
	// share the stable "disabled" stamp).
	mix(a.cfg.Adversary.Signature())
	mixStr(spec.Provider)
	mixStr(spec.Claimed)
	mixStr(spec.GroupKey)
	return h
}

// batchItem is one dirty server queued for measurement.
type batchItem struct {
	row  int
	spec ServerSpec
	sig  uint64
}

// Sync runs one streaming pass over the source: servers whose dependency
// signature changed since their last verdict are re-measured in bounded
// batches; the rest are skipped. After the pass the group metadata
// refinement and the manipulation judgment are re-resolved over the
// whole store, so partial deltas compose into exactly the verdicts a
// full pass would produce.
//
// Determinism: each server draws from its own (Seed, ID) stream, batch
// composition only affects scheduling, and per-batch results are written
// into per-row slots — so verdicts are a pure function of (store state,
// source, constellation, faults), at any Concurrency/BatchSize/QueueDepth.
//
// A canceled pass returns the context's error without resolving; only
// the batches written before the cancellation count as audited, and
// every other dirty row stays dirty for the next pass.
func (a *Auditor) Sync(ctx context.Context, src Source) (PassStats, error) {
	a.pass++
	tel := a.cfg.Telemetry
	prov, _ := src.(Provisioner)
	stats := PassStats{Total: src.Len()}
	// Cache counters are cumulative over the Env's lifetime; snapshot
	// them here so the deltas reported below cover this pass only.
	caches := a.cfg.Env.Masks.Stats()

	// Stage 0 (adversary plan armed only): cross-validate the anchors
	// against the as-reported calibration mesh, once per mesh generation.
	// The flagged set filters every batch's localization inputs below
	// and is stamped into the store for the fingerprint; the robust mesh
	// fit doubles as the honest-noise baseline the per-server detectors
	// compare against. A mesh with no baseline fails the pass.
	if plan := a.cfg.Adversary; plan.Enabled() {
		// The epoch is read before the mesh, so churn landing in between
		// leaves a stale stamp and a recompute, never a stale report.
		epoch, planSig := a.cfg.Cons.Epoch(), plan.Signature()
		if a.lmReport == nil || a.lmEpoch != epoch || a.lmPlan != planSig {
			span := tel.StartStage("audit.crossvalidate")
			edges := detect.MeshEdges(a.cfg.Cons, plan.ReportedPosition, plan.ReportBiasMs)
			rep, err := detect.CrossValidate(edges, detect.DefaultCrossValidateConfig())
			span.End()
			if err != nil {
				a.lmReport = nil
				return stats, fmt.Errorf("stream: cross-validating the anchors: %w", err)
			}
			a.lmReport, a.lmEpoch, a.lmPlan = rep, epoch, planSig
		}
		a.store.setAdversary(true, a.lmReport.Flagged)
	} else {
		a.lmReport = nil
		a.store.setAdversary(false, nil)
	}

	release := func(batch []batchItem) {
		if prov != nil {
			prov.Release(specsOf(batch))
		}
	}
	batches := make(chan []batchItem, a.queueDepth())
	var feedErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(batches)
		batch := make([]batchItem, 0, a.batchSize())
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			if prov != nil {
				if err := prov.Provision(specsOf(batch)); err != nil {
					feedErr = fmt.Errorf("stream: provisioning batch: %w", err)
					return false
				}
			}
			tel.Observe("stream.queue.depth", float64(len(batches)))
			select {
			case batches <- batch:
			case <-ctx.Done():
				// The batch was provisioned but never handed off: release
				// it here or its hosts leak into the next pass.
				release(batch)
				feedErr = ctx.Err()
				return false
			}
			batch = make([]batchItem, 0, a.batchSize())
			return true
		}
		for i := 0; i < src.Len(); i++ {
			spec := src.Spec(i)
			row := a.store.ensure(spec)
			// The signature is captured at batch formation: churn
			// landing after this point re-dirties the server on the
			// next pass rather than silently racing this one.
			sig := a.signature(spec)
			if stored, assessed := a.store.sigOf(row); assessed && stored == sig {
				stats.Skipped++
				continue
			}
			batch = append(batch, batchItem{row: row, spec: spec, sig: sig})
			if len(batch) >= a.batchSize() {
				if !flush() {
					return
				}
			}
		}
		flush()
	}()

	for batch := range batches {
		// Once canceled, drain without assessing, so every unfinished
		// row keeps its old signature and stays dirty for the next pass.
		if ctx.Err() != nil {
			release(batch)
			continue
		}
		start := time.Now()
		bs, written := a.runBatch(ctx, batch, stats.Audited, stats.Total)
		release(batch)
		if !written {
			continue
		}
		bs.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
		tel.Observe("stream.batch.ms", bs.WallMs)
		tel.Add("stream.audited", int64(len(batch)))
		stats.Audited += len(batch)
		if a.cfg.OnBatchDone != nil {
			bs.Pass, bs.Index = a.pass, stats.Batches
			a.cfg.OnBatchDone(bs)
		}
		stats.Batches++
	}
	wg.Wait()
	if feedErr != nil {
		return stats, feedErr
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	span := tel.StartStage("audit.disambiguate")
	a.store.resolveGroups()
	span.End()
	// Like the group refinement, the manipulation judgment is a pure
	// function of the whole store's per-server fits: re-judging after
	// every pass makes partial deltas compose into exactly the verdicts
	// a full pass would produce.
	a.store.resolveAdversary(detect.DefaultInspectConfig())
	a.recordPass(stats, caches)
	return stats, nil
}

// specsOf returns the batch's server specs, for the Provisioner.
func specsOf(batch []batchItem) []ServerSpec {
	specs := make([]ServerSpec, len(batch))
	for i, it := range batch {
		specs[i] = it.spec
	}
	return specs
}

// runBatch measures, locates and assesses one batch and writes it to
// the store: the only point where RTT vectors and prediction regions
// exist, and they die with the batch unless OnBatchDone keeps them.
// done and total place the batch in the pass for progress reporting.
// It reports false, writing nothing, when cancellation cut the
// measurement short.
func (a *Auditor) runBatch(ctx context.Context, batch []batchItem, done, total int) (BatchStats, bool) {
	tel := a.cfg.Telemetry
	proxies := make([]netsim.HostID, len(batch))
	for i, it := range batch {
		proxies[i] = it.spec.ID
	}
	span := tel.StartStage("audit.measure")
	mb := &measure.Batch{
		Cons:        a.cfg.Cons,
		Client:      a.cfg.Client,
		Eta:         measure.DefaultEta,
		Concurrency: a.concurrency(),
		Seed:        a.cfg.Seed,
		Policy:      measure.PolicyFor(a.cfg.Cons.Net()),
		Adversary:   a.cfg.Adversary,
		OnProgress: func(n, _ int) {
			tel.Progress("audit.measure", done+n, total)
		},
	}
	measured := mb.Run(ctx, proxies)
	span.End()
	if ctx.Err() != nil {
		// Don't bake partial results into the store: the rows stay dirty.
		return BatchStats{}, false
	}

	span = tel.StartStage("audit.locate")
	armed := a.cfg.Adversary.Enabled()
	inspectCfg := detect.DefaultInspectConfig()
	bs := BatchStats{
		Servers: len(batch),
		Results: make([]*assess.Result, len(batch)),
		Errors:  make([]*ServerError, len(batch)),
	}
	rows := make([]row, len(batch))
	var located atomic.Int64
	parallelFor(len(batch), a.concurrency(), func(i int) {
		it := batch[i]
		r := row{id: it.spec.ID, claimed: it.spec.Claimed, sig: it.sig, pass: a.pass}
		region := a.cfg.Env.Grid.NewRegion()
		var ms []geoloc.Measurement
		var serr *ServerError
		switch {
		case measured[i].Err != nil:
			serr = &ServerError{Stage: StageMeasure, Err: measured[i].Err}
		default:
			ms = measured[i].Result.Measurements()
			if armed {
				// Flagged landmarks' reports are poison: drop them before
				// fitting a region.
				kept := make([]geoloc.Measurement, 0, len(ms))
				for _, m := range ms {
					if !a.lmReport.IsFlagged(m.LandmarkID) {
						kept = append(kept, m)
					}
				}
				r.excluded = int32(len(ms) - len(kept))
				ms = kept
			}
			if len(ms) < 4 {
				// The "experiments:" prefix predates this package and is
				// part of the pinned golden audit fingerprint.
				serr = &ServerError{Stage: StageMeasure,
					Err: fmt.Errorf("experiments: only %d usable measurements (need 4)", len(ms))}
			} else if r2, lerr := a.cfg.Locator.Locate(ms); lerr != nil {
				serr = &ServerError{Stage: StageLocate, Err: lerr}
			} else {
				region = r2
			}
		}
		if serr != nil {
			r.errStage, r.errMsg = serr.Stage, serr.Err.Error()
		}
		if armed {
			r.insp = &detect.Inspection{}
			if c, ok := region.Centroid(); ok {
				*r.insp = detect.InspectServer(ms, c, inspectCfg)
			}
		}
		res := assess.Assess(a.cfg.Env.Mask, region, string(it.spec.ID), it.spec.Provider, it.spec.Claimed)
		r.raw, r.dc, r.cont = res.VerdictRaw, res.Verdict, res.ContVerdict
		r.probableDC, r.candidates = res.ProbableCountry, res.Candidates
		r.cells = int32(region.Count())
		if m := measured[i].Result; m != nil && m.Deg != nil {
			// A copy, so the row does not keep the measurement session alive.
			deg := *m.Deg
			r.deg = &deg
		}
		a.store.setResult(it.row, r)
		rows[i] = r
		bs.Results[i], bs.Errors[i] = res, serr
		tel.Progress("audit.locate", done+int(located.Add(1)), total)
	})
	span.End()
	a.recordBatch(rows)
	return bs, true
}

// recordBatch adds one written batch's servers to the audit.* counters:
// failures by stage, data-center reclassifications, and, when armed,
// the fault ledger and the excluded measurements.
func (a *Auditor) recordBatch(rows []row) {
	var st Stats
	for i := range rows {
		st.add(&rows[i])
	}
	tel := a.cfg.Telemetry
	tel.Add("audit.servers", int64(st.Servers))
	tel.Add("audit.failures.measure", int64(st.MeasureFailures))
	tel.Add("audit.failures.locate", int64(st.LocateFailures))
	tel.Add("audit.reclassified.dc", int64(st.ReclassifiedByDC))
	if a.cfg.Adversary.Enabled() {
		tel.Add("audit.adversary.excluded", int64(st.ExcludedMeasurements))
	}
	if st.FaultyServers > 0 {
		tel.Add("audit.faults.retries", int64(st.Retries))
		tel.Add("audit.faults.probefailures", int64(st.ProbeFailures))
		tel.Add("audit.faults.lostlandmarks", int64(st.LostLandmarks))
		tel.Add("audit.faults.disconnects", int64(st.Disconnects))
		tel.Add("audit.faults.degraded", int64(st.DegradedServers))
	}
}

// recordPass adds a completed pass's whole-store resolutions (group
// reclassifications, flagged landmarks, suspected servers) and its
// geometry-cache deltas to the telemetry. The per-server counters were
// added batch by batch, so they count the servers measured this pass.
func (a *Auditor) recordPass(stats PassStats, before grid.MaskStats) {
	tel := a.cfg.Telemetry
	st := a.store.Stats()
	tel.Add("audit.reclassified.group", int64(st.ReclassifiedByGroup))
	if a.lmReport != nil {
		tel.Add("audit.adversary.flagged", int64(len(a.lmReport.Flagged)))
		tel.Add("audit.adversary.suspected", int64(st.SuspectedServers))
	}
	tel.Add("stream.skipped", int64(stats.Skipped))
	tel.Add("stream.passes", 1)
	after := a.cfg.Env.Masks.Stats()
	tel.Add("geo.mask.hits", int64(after.Hits-before.Hits))
	tel.Add("geo.mask.misses", int64(after.Misses-before.Misses))
	tel.Add("geo.mask.evictions", int64(after.Evictions-before.Evictions))
	tel.Add("geo.mask.refined", int64(after.RefinedCells-before.RefinedCells))
}

// parallelFor runs fn(i) for i in [0, n) on at most workers goroutines
// (inline, in order, when workers ≤ 1). Work is handed out by an atomic
// counter; fn writes into per-index state, so scheduling cannot affect
// results.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
