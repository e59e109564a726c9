package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/detect"
	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/octant"
	"activegeo/internal/spotter"
	"activegeo/internal/telemetry"
)

// probeLayers completes a traced run's per-layer metrics. It times each
// layer's public entry points on the workload's own lab, after the timed
// window: netsim and measure on the first probeServers servers, set-up
// steps, Locate per algorithm, assess and detect. The stage breakdowns a
// workload's own rounds produce (audit stages, streaming passes, Locate
// calls) come from its traced rounds; a workload without them gets them
// from one probe audit, a small streaming auditor, or the probe's Locate
// calls.
func probeLayers(m metricSet, lab *experiments.Lab, inst instance, tr *tracer, probeServers int) error {
	root := tr.start(nil, "probe")
	defer tr.end(root)
	servers := lab.Fleet.Servers()
	ids := make([]netsim.HostID, min(probeServers, len(servers)))
	for i := range ids {
		ids[i] = servers[i].Host.ID
	}

	sp := tr.start(root, "measure.ProxiedTwoPhase")
	vecs, pairs := probeMeasure(m, lab, ids)
	tr.end(sp)
	if len(vecs) == 0 {
		return fmt.Errorf("probe: none of %d servers measured", len(ids))
	}
	sp = tr.start(root, "netsim")
	probeNetsim(m, lab.Net, pairs)
	tr.end(sp)
	sp = tr.start(root, "measure.ProxiedTwoPhaseAdversarial")
	probeAdversarial(m, lab, ids)
	tr.end(sp)
	sp = tr.start(root, "setup")
	if err := probeSetup(m, lab); err != nil {
		return err
	}
	tr.end(sp)

	env, algs := lab.Env, labAlgorithms(lab)
	rp, isReplay := inst.(*replayRun)
	if isReplay {
		env, algs = rp.env, rp.algs
	}
	sp = tr.start(root, "geoloc.Locate")
	regions, callS := probeLocate(m, lab, env, algs, vecs)
	tr.end(sp)
	if isReplay {
		callS = tr.durations("geoloc.Locate.")
	}
	m.set("locate.call_p50_ms", 1e3*percentile(callS, 0.50))
	m.set("locate.call_p99_ms", 1e3*percentile(callS, 0.99))

	sp = tr.start(root, "detect")
	probeDetect(m, lab, vecs, regions)
	tr.end(sp)

	aud, isAudit := inst.(*auditRun)
	if !isAudit {
		aud = &auditRun{lab: lab}
		sp = tr.start(root, "experiments.Lab.Audit")
		_, err := aud.round(tr, sp)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	auditMetrics(m, aud.traced)
	sp = tr.start(root, "assess")
	probeAssess(m, lab, aud.last)
	tr.end(sp)

	churn, isChurn := inst.(*churnRun)
	if !isChurn {
		sp = tr.start(root, "stream")
		c, err := probeStream(lab, len(ids), tr, sp)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		churn = c
	}
	streamMetrics(m, churn)
	return nil
}

// probeMeasure runs the honest two-phase measurement through each probe
// server, one at a time, and returns the measurement vectors and the
// proxy→landmark pairs they probed.
func probeMeasure(m metricSet, lab *experiments.Lab, ids []netsim.HostID) ([][]geoloc.Measurement, [][2]netsim.HostID) {
	var ms, allocs []float64
	var vecs [][]geoloc.Measurement
	var pairs [][2]netsim.HostID
	samples := 0
	for _, id := range ids {
		rng := rand.New(rand.NewSource(measure.StreamSeed(lab.Cfg.Seed, id)))
		o0, _ := mallocs()
		start := time.Now()
		res, err := measure.ProxiedTwoPhase(lab.Cons, lab.Client, id, measure.DefaultEta, rng)
		d := time.Since(start)
		o1, _ := mallocs()
		if err != nil {
			continue
		}
		ms = append(ms, 1e3*d.Seconds())
		allocs = append(allocs, float64(o1-o0))
		s := res.Samples()
		samples += len(s)
		for _, x := range s {
			pairs = append(pairs, [2]netsim.HostID{id, x.LandmarkID})
		}
		vecs = append(vecs, res.Measurements())
	}
	if len(vecs) == 0 {
		return nil, nil
	}
	m.set("measure.two_phase_ms_p50", percentile(ms, 0.50))
	m.set("measure.two_phase_ms_p90", percentile(ms, 0.90))
	m.set("measure.allocs_per_server", mean(allocs))
	m.set("measure.samples_per_server", float64(samples)/float64(len(vecs)))
	return vecs, pairs
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perCall times fn over every pair, reps times, and returns the mean
// microseconds, allocations and bytes per call.
func perCall(pairs [][2]netsim.HostID, fn func(p [2]netsim.HostID)) (us, allocs, bytes float64) {
	const reps = 3
	o0, b0 := mallocs()
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range pairs {
			fn(p)
		}
	}
	d := time.Since(start)
	o1, b1 := mallocs()
	n := float64(reps * len(pairs))
	return 1e6 * d.Seconds() / n, float64(o1-o0) / n, float64(b1-b0) / n
}

// probeNetsim times the simulator's primitives on the fleet's real
// proxy→landmark pairs.
func probeNetsim(m metricSet, net *netsim.Network, pairs [][2]netsim.HostID) {
	rng := rand.New(rand.NewSource(1))
	// Errors are part of the simulated network (filtered ports, timeouts)
	// and cost time like answers do, so every call is timed.
	us, allocs, bytes := perCall(pairs, func(p [2]netsim.HostID) { _, _ = net.SampleRTTMs(p[0], p[1], rng) })
	m.set("netsim.sample_rtt_us", us)
	m.set("netsim.allocs_per_sample", allocs)
	m.set("netsim.bytes_per_sample", bytes)
	us, _, _ = perCall(pairs, func(p [2]netsim.HostID) { _, _ = net.TCPConnect(p[0], p[1], measure.HTTPPort, rng) })
	m.set("netsim.tcp_connect_us", us)
	withFaults(net, func() {
		us, _, _ = perCall(pairs, func(p [2]netsim.HostID) {
			var clk netsim.Clock
			_, _ = net.Probe(p[0], p[1], measure.HTTPPort, rng, &clk)
		})
	})
	m.set("netsim.probe_faulty_us", us)
}

// withFaults runs fn with audit-hostile's fault profile armed on net,
// unless faults are armed already, and restores the previous profile.
func withFaults(net *netsim.Network, fn func()) {
	if prev := net.Faults(); !prev.Enabled() {
		net.SetFaults(netsim.DefaultFaults(hostileLoss))
		defer net.SetFaults(prev)
	}
	fn()
}

// probeAdversarial runs the resilient, adversarial measurement path
// through each probe server under audit-hostile's faults and attack.
func probeAdversarial(m metricSet, lab *experiments.Lab, ids []netsim.HostID) {
	plan := lab.Adversary
	if !plan.Enabled() {
		p := hostilePlan()
		plan = &p
	}
	var ms []float64
	var retries, coverage float64
	withFaults(lab.Net, func() {
		for _, id := range ids {
			rng := rand.New(rand.NewSource(measure.StreamSeed(lab.Cfg.Seed, id)))
			start := time.Now()
			res, err := measure.ProxiedTwoPhaseAdversarial(lab.Cons, lab.Client, id, measure.DefaultEta, measure.DefaultPolicy(), plan, rng)
			d := time.Since(start)
			if err != nil || res.Deg == nil {
				continue
			}
			ms = append(ms, 1e3*d.Seconds())
			retries += float64(res.Deg.Retries)
			coverage += res.Deg.Coverage()
		}
	})
	n := float64(max(len(ms), 1))
	m.set("measure.adversarial_ms_p50", percentile(ms, 0.50))
	m.set("measure.retries_per_server", retries/n)
	m.set("measure.coverage", coverage/n)
}

// probeSetup times the two set-up steps inside NewLab that dominate it:
// building the landmark atlas (on a fresh network, with the lab's sizes)
// and calibrating the four calibrated algorithms on the lab's atlas.
func probeSetup(m metricSet, lab *experiments.Lab) error {
	cfg := lab.Cfg
	start := time.Now()
	_, err := atlas.Build(netsim.New(cfg.Seed), atlas.Config{Anchors: cfg.Anchors, Probes: cfg.Probes, SamplesPerPair: 4},
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return fmt.Errorf("probe: building atlas: %w", err)
	}
	m.set("setup.atlas_build_s", time.Since(start).Seconds())
	var cal []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := cbg.Calibrate(lab.Cons, cbg.Options{}); err != nil {
			return err
		}
		if _, err := octant.Calibrate(lab.Cons); err != nil {
			return err
		}
		if _, err := spotter.Calibrate(lab.Cons); err != nil {
			return err
		}
		if _, err := cbgpp.Calibrate(lab.Cons, cbgpp.Options{}); err != nil {
			return err
		}
		cal = append(cal, time.Since(start).Seconds())
	}
	m.set("setup.calibrate_s", median(cal))
	return nil
}

// probeLocate times every algorithm's Locate on the probe vectors, one
// call at a time after a warm-up pass, and returns the audit locator's
// regions plus every timed call's duration in seconds.
func probeLocate(m metricSet, lab *experiments.Lab, env *geoloc.Env, algs []namedAlg, vecs [][]geoloc.Measurement) ([]*grid.Region, []float64) {
	for _, a := range algs {
		for _, v := range vecs {
			_, _ = a.alg.Locate(v) // warm-up; the timed pass reports errors
		}
	}
	var calls []float64
	refined0 := env.Masks.Stats().RefinedCells
	for _, a := range algs {
		us := make([]float64, 0, len(vecs))
		o0, _ := mallocs()
		for _, v := range vecs {
			start := time.Now()
			_, _ = a.alg.Locate(v)
			d := time.Since(start).Seconds()
			us = append(us, 1e6*d)
			calls = append(calls, d)
		}
		o1, _ := mallocs()
		m.set("locate."+a.key+".p50_us", median(us))
		m.set("locate."+a.key+".allocs", float64(o1-o0)/float64(len(vecs)))
	}
	ms := env.Masks.Stats()
	m.set("grid.mask.refined_cells_per_locate", float64(ms.RefinedCells-refined0)/float64(len(algs)*len(vecs)))
	m.set("grid.mask.hit_ratio", float64(ms.Hits)/float64(max(ms.Hits+ms.Misses, 1)))
	m.set("grid.field.misses", float64(env.Field.Stats().Misses))

	// The audit's own locator: CBG++ on the lab's grid.
	regions := make([]*grid.Region, len(vecs))
	var us []float64
	for i, v := range vecs {
		_, _ = lab.CBGpp.Locate(v)
		start := time.Now()
		r, err := lab.CBGpp.Locate(v)
		us = append(us, 1e6*time.Since(start).Seconds())
		if err == nil {
			regions[i] = r
		}
	}
	m.set("locate.cbgpp.audit_p50_us", median(us))
	return regions, calls
}

// probeDetect times landmark cross-validation under audit-hostile's plan,
// and the per-server inspection and population judgment on the probe
// servers' CBG++ regions.
func probeDetect(m metricSet, lab *experiments.Lab, vecs [][]geoloc.Measurement, regions []*grid.Region) {
	plan := lab.Adversary
	if !plan.Enabled() {
		p := hostilePlan()
		plan = &p
	}
	// One call only: on the quick labs' 80 anchors it takes seconds.
	start := time.Now()
	detect.CrossValidate(detect.MeshEdges(lab.Cons, plan.ReportedPosition, plan.ReportBiasMs), detect.DefaultCrossValidateConfig())
	m.set("detect.crossvalidate_ms", 1e3*time.Since(start).Seconds())

	cfg := detect.DefaultInspectConfig()
	insps := map[string]detect.Inspection{}
	var us []float64
	for i, v := range vecs {
		var c geo.Point
		if regions[i] != nil {
			c, _ = regions[i].Centroid()
		}
		start := time.Now()
		insp := detect.InspectServer(v, c, cfg)
		us = append(us, 1e6*time.Since(start).Seconds())
		insps[fmt.Sprint(i)] = insp
	}
	m.set("detect.inspect_us", median(us))
	var judge []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		detect.JudgeServers(insps, cfg)
		judge = append(judge, 1e3*time.Since(start).Seconds())
	}
	m.set("detect.judge_ms", median(judge))
}

// probeAssess times assess.Assess on every region of an audit, and the
// group disambiguation over the whole fleet's data-center groups.
func probeAssess(m metricSet, lab *experiments.Lab, run *experiments.AuditRun) {
	var us []float64
	byID := make(map[string]*assess.Result, len(run.Results))
	for _, r := range run.Results {
		start := time.Now()
		assess.Assess(lab.Env.Mask, r.Region, r.ServerID, r.Provider, r.ClaimedCountry)
		us = append(us, 1e6*time.Since(start).Seconds())
		byID[r.ServerID] = r
	}
	m.set("assess.assess_us", median(us))

	// The groups in the audit's order: sorted keys, singletons skipped.
	groups := lab.Fleet.DataCenterGroups()
	keys := make([]string, 0, len(groups))
	for key, g := range groups {
		if len(g) >= 2 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var ms []float64
	for rep := 0; rep < 3; rep++ {
		// Disambiguation rewrites verdicts, so each repetition works on
		// fresh copies of the audit's results.
		copies := make([][]*assess.Result, 0, len(keys))
		for _, key := range keys {
			members := make([]*assess.Result, 0, len(groups[key]))
			for _, s := range groups[key] {
				if r, ok := byID[string(s.Host.ID)]; ok {
					c := *r
					members = append(members, &c)
				}
			}
			copies = append(copies, members)
		}
		start := time.Now()
		for _, members := range copies {
			assess.DisambiguateGroup(members)
		}
		ms = append(ms, 1e3*time.Since(start).Seconds())
	}
	m.set("assess.disambiguate_ms", median(ms))
}

// auditMetrics reports the audit's own stage spans over traced audit
// rounds: wall and CPU time per stage, the round's time outside its
// stages, and CPU use against the workers available.
func auditMetrics(m metricSet, rounds []stageRound) {
	stage := func(name string, cpu bool) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			st := r.stages["audit."+name]
			xs[i] = st.Wall.Seconds()
			if cpu {
				xs[i] = st.CPU.Seconds()
			}
		}
		return median(xs)
	}
	for _, name := range []string{"measure", "locate", "disambiguate"} {
		m.set("audit."+name+"_s", stage(name, false))
		m.set("audit."+name+"_cpu_s", stage(name, true))
	}
	self := make([]float64, len(rounds))
	var wall, cpu time.Duration
	for i, r := range rounds {
		inStages := time.Duration(0)
		for _, st := range r.stages {
			inStages += st.Wall
		}
		self[i] = (r.wall - inStages).Seconds()
		wall += r.wall
		cpu += r.cpu
	}
	m.set("audit.self_s", median(self))
	m.set("audit.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
}

// probeStream runs a small streaming auditor over the probe servers: one
// full pass, then traced churn passes of the same shape as stream-churn's.
func probeStream(lab *experiments.Lab, servers int, tr *tracer, parent *span) (*churnRun, error) {
	saved := lab.Telemetry
	lab.Telemetry = telemetry.New()
	defer func() { lab.Telemetry = saved }()
	c, err := newChurn(lab, newClaimSource(lab.StreamSource(), servers), 16)
	if err != nil {
		return nil, err
	}
	for p := 0; p < 5; p++ {
		if _, err := c.round(tr, parent); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// streamMetrics reports traced streaming passes: pass time, the re-audit
// and skip counts, batch time from the auditor's own distribution, and
// the pass time outside its batches. The auditor's queue-depth
// distribution is left out: at these sizes the queue never backs up, so
// it reads 0.
func streamMetrics(m metricSet, c *churnRun) {
	var syncMs, resolveMs []float64
	for _, p := range c.passes {
		ms := 1e3 * p.wall.Seconds()
		syncMs = append(syncMs, ms)
		resolveMs = append(resolveMs, ms-p.batchMs)
	}
	last := c.passes[len(c.passes)-1].stats
	m.set("stream.sync_ms_p50", median(syncMs))
	m.set("stream.sync_ms_p90", percentile(syncMs, 0.90))
	m.set("stream.audited_per_pass", float64(last.Audited))
	m.set("stream.skip_ratio", float64(last.Skipped)/float64(last.Total))
	batch, _ := c.tel.Distribution("stream.batch.ms")
	m.set("stream.batch_ms_p50", batch.P50)
	m.set("stream.resolve_ms", median(resolveMs))
}
