package main

import (
	"fmt"
	"runtime"
	"time"

	"activegeo/internal/experiments"
	"activegeo/internal/telemetry"
)

// options shape one run of one workload.
type options struct {
	seed         int64 // negative: the workload's default seed
	window       time.Duration
	trace        bool
	setupReps    int // set-ups per run; setup_s is their median
	probeServers int // servers the layer probes measure
}

// result is one run's record: the file the run writes, and the source of
// the JSON line it prints.
type result struct {
	Env        envBlock  `json:"env"`
	Correct    bool      `json:"correct"`
	Error      string    `json:"error,omitempty"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Digest     string    `json:"digest"`  // the output every round repeated
	Summary    string    `json:"summary"` // the counts behind the pinned digest
	Rounds     int       `json:"rounds"`
	ItemErrors int       `json:"item_errors"`
	RoundS     []float64 `json:"round_s"`
	SetupS     []float64 `json:"setup_s"`
	Metrics    metricSet `json:"metrics"`
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	lab, prepare, warm, total time.Duration
}

// runWorkload sets the workload up, runs its timed window and checks its
// output. Untraced runs report the end-to-end metrics; traced runs the
// per-layer metrics and the span log.
func runWorkload(w workload, o options) (*result, *tracer) {
	seed := o.seed
	if seed < 0 {
		seed = w.config().Seed
	}
	res := &result{Env: newEnv(w.name, seed, o.window, o.trace), Metrics: metricSet{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := execute(w, seed, o, tr, res); err != nil {
		res.Error = err.Error()
		res.Failed = max(res.Failed, 1)
		res.Attempted = max(res.Attempted, res.Failed)
		return res, tr
	}
	res.Correct = true
	return res, tr
}

func execute(w workload, seed int64, o options, tr *tracer, res *result) error {
	cfg := w.config()
	var (
		lab   *experiments.Lab
		inst  instance
		warm  outcome
		setup []setupTimes
	)
	for rep := 0; rep < max(o.setupReps, 1); rep++ {
		lab, inst = nil, nil
		runtime.GC() // the previous set-up's lab is garbage now
		st, l, in, wo, err := setUp(w, cfg, seed, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		lab, inst, warm = l, in, wo
		setup = append(setup, st)
	}
	res.Digest = warm.digest
	totals := make([]time.Duration, len(setup))
	for i, st := range setup {
		totals[i] = st.total
	}
	res.SetupS = seconds(totals)
	ref, summary := inst.reference()
	res.Summary = summary
	if w.pin.digest != "" && seed == cfg.Seed && (ref != w.pin.digest || summary != w.pin.summary) {
		return fmt.Errorf("output at the default seed is %s (%s), want the pinned %s (%s)", ref, summary, w.pin.digest, w.pin.summary)
	}

	// The timed window: closed-loop rounds back to back. A traced run
	// alternates traced and untraced rounds, so the two round-time medians
	// give the tracing overhead.
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	// A collection after every round, outside its timed part, starts each
	// round on the same clean heap and makes the live-heap reading at the
	// round boundary exact: what the program keeps between rounds.
	var walls, traced, plain []time.Duration
	items := 0
	runtime.GC()
	heapPeak := readRuntime("/gc/heap/live:bytes")
	alloc0 := readRuntime("/gc/heap/allocs:bytes")
	start := time.Now()
	for r := 1; r <= minRounds || time.Since(start) < o.window; r++ {
		var rt *tracer
		var root *span
		if tr != nil && r%2 == 1 {
			rt, root = tr, tr.root("round", int64(r))
		}
		out, err := inst.round(rt, root)
		rt.end(root)
		if err == nil && out.digest != warm.digest {
			err = fmt.Errorf("output %s differs from the warm-up round's %s", out.digest, warm.digest)
		}
		if err != nil {
			res.Attempted += warm.items
			res.Failed += warm.items
			return fmt.Errorf("round %d: %w", r, err)
		}
		res.Attempted += out.items
		res.ItemErrors = out.itemErrors
		items += out.items
		walls = append(walls, out.wall)
		if rt != nil {
			traced = append(traced, out.wall)
		} else {
			plain = append(plain, out.wall)
		}
		runtime.GC()
		heapPeak = max(heapPeak, readRuntime("/gc/heap/live:bytes"))
	}
	allocBytes := readRuntime("/gc/heap/allocs:bytes") - alloc0
	res.Rounds = len(walls)
	res.RoundS = seconds(walls)

	serial, err := inst.finish(tr != nil)
	if err != nil {
		return fmt.Errorf("end-of-run check: %w", err)
	}

	m := res.Metrics
	if tr == nil {
		var busy time.Duration
		for _, d := range walls {
			busy += d
		}
		m.set("setup_s", median(res.SetupS))
		m.set("round_p50_s", median(res.RoundS))
		m.set("items_per_s", float64(items)/busy.Seconds())
		m.set("alloc_kb_per_item", float64(allocBytes)/1024/float64(items))
		m.set("heap_live_mb", float64(heapPeak)/(1<<20))
		return nil
	}

	step := func(get func(setupTimes) time.Duration) float64 {
		ds := make([]time.Duration, len(setup))
		for i, st := range setup {
			ds[i] = get(st)
		}
		return median(seconds(ds))
	}
	m.set("setup.lab_s", step(func(s setupTimes) time.Duration { return s.lab }))
	m.set("setup.prepare_s", step(func(s setupTimes) time.Duration { return s.prepare }))
	m.set("setup.warm_s", step(func(s setupTimes) time.Duration { return s.warm }))
	plainP50 := median(seconds(plain))
	m.set("round.serial_speedup", serial.Seconds()/plainP50)
	m.set("trace.overhead_pct", 100*(median(seconds(traced))/plainP50-1))
	return probeLayers(m, lab, inst, tr, o.probeServers)
}

// setUp builds a fresh lab, prepares the workload on it and runs one
// warm-up round, so caches are filled before the timed window.
func setUp(w workload, cfg experiments.Config, seed int64, tr *tracer) (setupTimes, *experiments.Lab, instance, outcome, error) {
	var st setupTimes
	root := tr.start(nil, "setup")
	defer tr.end(root)
	start := time.Now()
	sp := tr.start(root, "experiments.NewLab")
	lab, err := experiments.NewLab(cfg)
	tr.end(sp)
	if err != nil {
		return st, nil, nil, outcome{}, err
	}
	st.lab = time.Since(start)
	lab.Cfg.Seed = seed // from here on the seed draws the measurement noise
	if tr != nil {
		lab.Telemetry = telemetry.New()
	}
	sp = tr.start(root, "prepare")
	inst, err := w.prepare(lab)
	tr.end(sp)
	if err != nil {
		return st, nil, nil, outcome{}, err
	}
	st.prepare = time.Since(start) - st.lab
	sp = tr.start(root, "warm")
	warm, err := inst.round(nil, nil)
	tr.end(sp)
	if err != nil {
		return st, nil, nil, outcome{}, fmt.Errorf("warm-up round: %w", err)
	}
	st.total = time.Since(start)
	st.warm = st.total - st.lab - st.prepare
	return st, lab, inst, warm, nil
}
