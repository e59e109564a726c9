// Command auditbench is the repository's benchmark: it runs the §6 proxy
// audit and its layers on four seeded workloads, checks every output, and
// prints each metric by name with its unit. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes each
// end-to-end metric's regression bound; README.md in this directory
// explains them.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload audit-quick --seed 2018 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh -compare A1.json A2.json -- B1.json B2.json
//
// Each run writes its result file (environment, per-round times, metrics)
// and, when traced, its span log under -out, and prints as its last line
// one JSON object with the keys correct, attempted, failed and metrics.
// It exits 1 when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// Work runs at GOMAXPROCS workers, never more than the machine's CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	all := workloads()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("auditbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", -1, "input seed; negative runs each workload at its default seed")
	secs := fs.Float64("seconds", -1, "timed window per workload in seconds; negative takes run_seconds from the spec")
	trace := fs.Int("trace", 0, "1 runs traced: per-layer metrics, span log and tracing overhead instead of end-to-end metrics")
	out := fs.String("out", ".bench_build/results", "directory for result files and span logs")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition: window, metrics and bounds")
	cmp := fs.Bool("compare", false, "compare result files instead of running: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(*specPath, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "auditbench: unexpected arguments %q or -trace %d (want 0 or 1)\n", fs.Args(), *trace)
		return 2
	}
	if *secs < 0 {
		s, err := loadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "auditbench: no -seconds and no spec: %v\n", err)
			return 2
		}
		*secs = float64(s.RunSeconds)
	}
	var chosen []workload
	for _, w := range all {
		if *only == "all" || *only == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "auditbench: unknown workload %q (have %s)\n", *only, strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "auditbench: %v\n", err)
		return 1
	}

	code := 0
	for _, w := range chosen {
		o := options{seed: *seed, window: time.Duration(*secs * float64(time.Second)), trace: *trace == 1,
			setupReps: 3, probeServers: 48}
		res, tr := runWorkload(w, o)
		if err := report(res, tr, *out, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "auditbench: %v\n", err)
			code = 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// report writes the run's result file and span log, prints a readable
// summary to stderr and the result line to stdout.
func report(res *result, tr *tracer, dir string, stdout, stderr io.Writer) error {
	e := res.Env
	fmt.Fprintf(stderr, "%s seed %d: %d rounds in a %.0f s window, %d cores, GOMAXPROCS %d, %s, revision %s\n",
		e.Workload, e.Seed, res.Rounds, e.WindowS, e.Cores, e.GOMAXPROCS, e.GoVersion, e.Revision)
	if !res.Correct {
		fmt.Fprintf(stderr, "%s: INCORRECT: %s\n", e.Workload, res.Error)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stderr, "  %-38s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}

	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", e.Workload, e.Seed, btoi(e.Trace)))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(base + "-spans.jsonl"); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
