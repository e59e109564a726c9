package main

import (
	"io"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/grid"
)

// tiny shrinks a workload's lab so every workload, traced and untraced,
// runs in about a second. The pins hold only at full size, so tiny runs
// carry none.
func tiny(w workload) workload {
	full := w.config()
	w.config = func() experiments.Config {
		return experiments.Config{Seed: full.Seed, Anchors: 20, Probes: 16, GridResDeg: 4, FleetTotal: 30,
			Volunteers: 2, MTurkers: 2, Faults: full.Faults}
	}
	w.pin = pin{}
	return w
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames, runNames []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads() {
		runNames = append(runNames, w.name)
	}
	if !slices.Equal(specNames, runNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", specNames, runNames)
	}
	var vocabulary []string
	for name := range units {
		vocabulary = append(vocabulary, name)
	}
	var listed []string
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		listed = append(listed, m.Name)
	}
	sort.Strings(vocabulary)
	sort.Strings(listed)
	if !slices.Equal(vocabulary, listed) {
		t.Errorf("metric vocabulary %v differs from BENCHMARK.json's %v", vocabulary, listed)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			start := time.Now()
			res, tr := runWorkload(tiny(w), options{seed: -1, trace: trace, setupReps: 1, probeServers: 8})
			t.Logf("%s trace %v: %v", w.name, trace, time.Since(start))
			if !res.Correct {
				t.Fatalf("%s trace %v: %s", w.name, trace, res.Error)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %v: metric %s not emitted", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics emitted, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name := range res.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if trace && len(tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

func TestTamperedPinFailsTheRun(t *testing.T) {
	w := tiny(workloads()[0])
	res, _ := runWorkload(w, options{seed: -1, setupReps: 1})
	if !res.Correct {
		t.Fatal(res.Error)
	}
	w.pin = pin{digest: res.Digest, summary: res.Summary}
	if res, _ := runWorkload(w, options{seed: -1, setupReps: 1}); !res.Correct {
		t.Fatalf("the run's own output as pin: %s", res.Error)
	}
	w.pin.digest = strings.Repeat("0", len(res.Digest))
	res, _ = runWorkload(w, options{seed: -1, setupReps: 1})
	if res.Correct || !strings.Contains(res.Error, "pinned") {
		t.Fatalf("a tampered pin did not fail the run (correct %v, error %q)", res.Correct, res.Error)
	}
	if res.Failed < 1 || res.Attempted < res.Failed {
		t.Errorf("failed run reports attempted %d, failed %d", res.Attempted, res.Failed)
	}
}

func TestSameRegion(t *testing.T) {
	g := grid.New(4)
	region := func(points ...geo.Point) *grid.Region {
		r := g.NewRegion()
		for _, p := range points {
			r.Add(g.CellAt(p))
		}
		return r
	}
	paris, nearParis, sydney := geo.Point{Lat: 48.9, Lon: 2.4}, geo.Point{Lat: 48.9, Lon: 6.4}, geo.Point{Lat: -33.9, Lon: 151.2}
	want := region(paris)
	for _, c := range []struct {
		name string
		got  *grid.Region
		tol  int
		ok   bool
	}{
		{"equal", region(paris), 0, true},
		{"one neighbouring cell within tolerance", region(paris, nearParis), 1, true},
		{"one neighbouring cell beyond tolerance", region(paris, nearParis), 0, false},
		{"one far cell within tolerance", region(paris, sydney), 1, false},
	} {
		if err := sameRegion(g, want, c.got, c.tol); (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok %v", c.name, err, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "round_p50_s", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "items_per_s", Better: "higher", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{1.03, 1.02, 1.04, 1.01, 1.05}, "ok"},
		{lower, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, "REGRESSION"},
		{higher, []float64{0.80, 0.81, 0.79, 0.82, 0.78}, "REGRESSION"},
		{higher, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, "ok"},
		{lower, []float64{0.5, 1.5, 0.7, 1.4, 1.0}, "unresolved"},
		{lower, []float64{0.5, 0.9, 0.6, 0.8, 0.7}, "better in every run"},
	} {
		if got := verdict(c.m, base, c.b, true); got != c.want {
			t.Errorf("%s %v vs %v: %q, want %q", c.m.Name, c.b, base, got, c.want)
		}
	}
	if got := verdict(lower, base, []float64{9, 9, 9}, false); got != "" {
		t.Errorf("per-layer metric judged %q", got)
	}
}

func TestCompareFlagsMoreFailures(t *testing.T) {
	s := &spec{Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{{Name: "round_p50_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	run := func(attempted, failed int) *result {
		return &result{Attempted: attempted, Failed: failed, Metrics: metricSet{"round_p50_s": {Value: 1, Unit: "s"}}}
	}
	base := map[string][]*result{"w": {run(100, 0), run(100, 0)}}
	if compare(s, base, map[string][]*result{"w": {run(100, 0), run(100, 0)}}, io.Discard) {
		t.Error("identical runs reported as a regression")
	}
	if !compare(s, base, map[string][]*result{"w": {run(100, 0), run(100, 1)}}, io.Discard) {
		t.Error("a higher failed share was not reported as a regression")
	}
}
