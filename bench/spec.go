package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one named measurement with its unit, as printed and written.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// units is the benchmark's whole metric vocabulary: every name a run can
// emit, with its unit. BENCHMARK.json lists the same names; the harness
// test holds the two in step.
var units = map[string]string{
	// End to end, from untraced runs.
	"setup_s":           "s",
	"round_p50_s":       "s",
	"items_per_s":       "1/s",
	"alloc_kb_per_item": "KiB",
	"heap_live_mb":      "MiB",

	// Set-up, split by step.
	"setup.lab_s":         "s",
	"setup.prepare_s":     "s",
	"setup.warm_s":        "s",
	"setup.atlas_build_s": "s",
	"setup.calibrate_s":   "s",

	// Rounds of the traced run.
	"round.serial_speedup": "x",
	"trace.overhead_pct":   "%",

	"netsim.sample_rtt_us":       "us",
	"netsim.tcp_connect_us":      "us",
	"netsim.probe_faulty_us":     "us",
	"netsim.allocs_per_sample":   "count",
	"netsim.bytes_per_sample":    "B",
	"measure.two_phase_ms_p50":   "ms",
	"measure.two_phase_ms_p90":   "ms",
	"measure.allocs_per_server":  "count",
	"measure.samples_per_server": "count",
	"measure.adversarial_ms_p50": "ms",
	"measure.retries_per_server": "count",
	"measure.coverage":           "ratio",

	"locate.cbg.p50_us":                  "us",
	"locate.cbgpp.p50_us":                "us",
	"locate.octant.p50_us":               "us",
	"locate.spotter.p50_us":              "us",
	"locate.hybrid.p50_us":               "us",
	"locate.cbg.allocs":                  "count",
	"locate.cbgpp.allocs":                "count",
	"locate.octant.allocs":               "count",
	"locate.spotter.allocs":              "count",
	"locate.hybrid.allocs":               "count",
	"locate.cbgpp.audit_p50_us":          "us",
	"locate.call_p50_ms":                 "ms",
	"locate.call_p99_ms":                 "ms",
	"grid.mask.hit_ratio":                "ratio",
	"grid.mask.refined_cells_per_locate": "count",
	"grid.field.misses":                  "count",

	"assess.assess_us":        "us",
	"assess.disambiguate_ms":  "ms",
	"detect.crossvalidate_ms": "ms",
	"detect.inspect_us":       "us",
	"detect.judge_ms":         "ms",

	"stream.sync_ms_p50":      "ms",
	"stream.sync_ms_p90":      "ms",
	"stream.audited_per_pass": "count",
	"stream.skip_ratio":       "ratio",
	"stream.batch_ms_p50":     "ms",
	"stream.resolve_ms":       "ms",

	"audit.measure_s":          "s",
	"audit.measure_cpu_s":      "s",
	"audit.locate_s":           "s",
	"audit.locate_cpu_s":       "s",
	"audit.disambiguate_s":     "s",
	"audit.disambiguate_cpu_s": "s",
	"audit.self_s":             "s",
	"audit.cpu_util":           "ratio",
}

// set records a metric under its vocabulary unit. An unlisted name is a
// bug in the benchmark itself.
func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the vocabulary")
	}
	m[name] = metric{Value: v, Unit: u}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the default
// window and each metric's direction and regression bound.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}
