package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareMain implements -compare A.json... -- B.json...: side A is the
// base (the parent commit), side B the change. For every workload and
// metric both sides report, it prints each side's median and quartiles
// and the ratio of B's median to A's (the base). An end-to-end metric
// whose median is worse by more than its BENCHMARK.json bound is a
// regression. One whose run-to-run spread (quartile distance over median,
// on either side) is wider than the bound is unresolved unless every run
// of B is better, or every run worse, than every run of A. It exits 1 on a
// regression or when B fails a larger share of its attempts than A.
func compareMain(specPath string, args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "auditbench: usage: -compare A.json... -- B.json...")
		return 2
	}
	s, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "auditbench: %v\n", err)
		return 2
	}
	a, err := loadResults(args[:sep])
	if err != nil {
		fmt.Fprintf(stderr, "auditbench: %v\n", err)
		return 2
	}
	b, err := loadResults(args[sep+1:])
	if err != nil {
		fmt.Fprintf(stderr, "auditbench: %v\n", err)
		return 2
	}
	if compare(s, a, b, stdout) {
		return 1
	}
	return 0
}

// loadResults reads result files and groups them by workload.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Env.Workload == "" {
			return nil, fmt.Errorf("%s: not a result file (no workload)", p)
		}
		out[r.Env.Workload] = append(out[r.Env.Workload], &r)
	}
	return out, nil
}

// compare prints the comparison and reports whether B regressed.
func compare(s *spec, a, b map[string][]*result, w io.Writer) (regressed bool) {
	metrics := append(slices.Clone(s.EndToEnd), s.PerLayer...)
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fa, fb := failShare(ra), failShare(rb)
		fmt.Fprintf(w, "%s: A %d runs, B %d runs; failed/attempted A %.6g, B %.6g\n", wl.Name, len(ra), len(rb), fa, fb)
		if fb > fa {
			fmt.Fprintf(w, "  REGRESSION: B fails a larger share of its attempts\n")
			regressed = true
		}
		fmt.Fprintf(w, "  %-36s %-6s %34s %34s %10s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict")
		for i, m := range metrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb, i < len(s.EndToEnd))
			if v == "REGRESSION" {
				regressed = true
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			ratio := "n/a"
			if am != 0 {
				ratio = fmt.Sprintf("%.4f", bm/am)
			}
			fmt.Fprintf(w, "  %-36s %-6s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %10s  %s\n",
				m.Name, m.Unit, am, a1, a3, bm, b1, b3, ratio, v)
		}
	}
	return regressed
}

func failShare(rs []*result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric. Per-layer metrics carry no
// bound and are reported only.
func verdict(m specMetric, a, b []float64, endToEnd bool) string {
	if !endToEnd {
		return ""
	}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	every := func(xs, ys []float64, rel func(x, y float64) bool) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !rel(x, y) {
					return false
				}
			}
		}
		return true
	}
	allBetter := every(b, a, better)
	allWorse := every(a, b, better)
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spread := max((a3-a1)/am, (b3-b1)/bm)
	limit := am * (1 + m.Bound)
	if m.Better == "higher" {
		limit = am * (1 - m.Bound)
	}
	worse := better(limit, bm)
	switch {
	case worse && (spread <= m.Bound || allWorse):
		return "REGRESSION"
	case spread > m.Bound && allBetter:
		return "better in every run"
	case spread > m.Bound:
		return "unresolved"
	default:
		return "ok"
	}
}
