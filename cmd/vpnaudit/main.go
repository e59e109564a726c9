// Command vpnaudit runs the paper's §6 audit over the simulated VPN
// fleet and prints per-provider and per-server verdicts.
//
// Usage:
//
//	vpnaudit [-scale quick|paper] [-provider A] [-v]
//	         [-concurrency N] [-telemetry] [-progress]
//	         [-faults] [-loss P] [-outage F]
//	         [-stream] [-batch N] [-queue N]
//
// Results are identical at every -concurrency setting (all randomness is
// derived per server); the flag only trades wall-clock time for cores.
// -telemetry prints per-stage wall/CPU timings and counters to stderr
// after the run; -progress streams completion counts while it runs.
//
// Both modes run the one audit engine (internal/stream). By default the
// audit keeps every server's region for the figures; -stream keeps none:
// servers flow through bounded batches of -batch servers with at most
// -queue batches buffered, so peak memory is O(batch) rather than
// O(fleet). -stream changes the memory profile, not the answers.
//
// -faults arms the netsim fault-injection layer with the default mix at
// -loss (probe loss rate, default 0.1); -loss or -outage alone also arm
// it. -outage overrides the fraction of landmarks suffering an outage
// window. Faulty runs stay deterministic — same seed, same verdicts at
// any concurrency — and print a coverage/confidence summary of what the
// resilient pipeline lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/experiments"
	"activegeo/internal/measure"
	"activegeo/internal/telemetry"
	"activegeo/internal/vis"
)

// printHonestyMaps renders the Figure 19 analogue: one world map per
// provider, each claimed country shaded by how many of its claims the
// measurements back up ('#' all backed … 'x' none; '?' claimed but
// unmeasured).
func printHonestyMaps(fig18 *experiments.Fig18Result, only string) {
	byProv := map[string]map[string]assess.HonestyCell{}
	for _, c := range fig18.Cells {
		if byProv[c.Provider] == nil {
			byProv[c.Provider] = map[string]assess.HonestyCell{}
		}
		byProv[c.Provider][c.Country] = c
	}
	provs := make([]string, 0, len(byProv))
	for p := range byProv {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		if only != "" && p != only {
			continue
		}
		cells := byProv[p]
		fmt.Printf("provider %s claim honesty ('#' ≥75%%, '+' ≥50%%, '-' ≥25%%, 'x' <25%%):\n", p)
		fmt.Println(vis.CountryMap(120, func(code string) rune {
			c, ok := cells[code]
			if !ok {
				return 0 // not claimed: plain land
			}
			switch h := c.Honesty(); {
			case h >= 0.75:
				return '#'
			case h >= 0.50:
				return '+'
			case h >= 0.25:
				return '-'
			default:
				return 'x'
			}
		}))
	}
}

func main() {
	scale := flag.String("scale", "quick", "audit scale: quick or paper")
	provider := flag.String("provider", "", "restrict per-server output to one provider (A–G)")
	verbose := flag.Bool("v", false, "print one line per server")
	maps := flag.Bool("maps", false, "draw a Figure 19-style honesty world map per provider")
	concurrency := flag.Int("concurrency", 0, "worker pool size for the parallel pipelines (0 = GOMAXPROCS; results are identical at any setting)")
	telFlag := flag.Bool("telemetry", false, "print per-stage timings and counters to stderr after the run")
	progressFlag := flag.Bool("progress", false, "stream pipeline progress to stderr")
	faultsFlag := flag.Bool("faults", false, "arm fault injection with the default mix at the -loss rate")
	loss := flag.Float64("loss", 0, "injected probe-loss rate (implies -faults; default 0.1 when -faults is set alone)")
	outage := flag.Float64("outage", 0, "fraction of landmarks with an outage window (implies -faults; overrides the default mix)")
	streamFlag := flag.Bool("stream", false, "print the tally only, keeping no server's region (bounded memory, identical verdicts)")
	batchSize := flag.Int("batch", 0, "streaming batch size (0 = default; only with -stream)")
	queueDepth := flag.Int("queue", 0, "streaming queue depth in batches (0 = default; only with -stream)")
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
	cfg.Concurrency = *concurrency
	cfg.Faults = experiments.FaultProfile(*faultsFlag, *loss, *outage)

	start := time.Now()
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatalf("building lab: %v", err)
	}
	tel := telemetry.New()
	lab.Telemetry = tel
	if *progressFlag {
		tel.OnProgress(progressPrinter())
	}
	if *streamFlag {
		runStreaming(lab, tel, start, *batchSize, *queueDepth, *provider, *verbose, *telFlag)
		return
	}
	run, err := lab.Audit()
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "audited %d servers in %v (%d measure / %d locate failures)\n",
		len(run.Results), time.Since(start).Round(time.Millisecond),
		run.MeasureFailures, run.LocateFailures)
	if len(run.Coverage) > 0 {
		meanCov := 0.0
		for _, r := range run.Results {
			if c, ok := run.Coverage[r.ServerID]; ok {
				meanCov += c.Coverage()
			}
		}
		meanCov /= float64(len(run.Coverage))
		fmt.Fprintf(os.Stderr,
			"fault injection (loss %.2f): %d/%d servers degraded, mean coverage %.3f, %d retries, %d probe failures, %d lost landmarks, %d disconnects\n",
			cfg.Faults.ProbeLoss, run.DegradedServers, len(run.Coverage), meanCov,
			run.Retries, run.ProbeFailures, run.LostLandmarks, run.Disconnects)
	}

	fig17, err := lab.Fig17Assessment()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig17.Render())

	fig18, err := lab.Fig18HonestyByCountry()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig18.Render())

	rows, err := lab.Fig21Comparison()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderFig21(rows))

	if *maps {
		printHonestyMaps(fig18, *provider)
	}

	if *verbose || *provider != "" {
		fmt.Println("per-server verdicts:")
		for _, r := range run.Results {
			if *provider != "" && r.Provider != *provider {
				continue
			}
			extra := ""
			if r.Verdict == assess.Uncertain && len(r.Candidates) > 1 {
				extra = fmt.Sprintf(" (could be: %v)", r.Candidates)
			}
			if c, ok := run.Coverage[r.ServerID]; ok && c.Confidence() != measure.ConfidenceFull {
				extra += fmt.Sprintf(" [coverage %d/%d, confidence %s]", c.Measured, c.Planned, c.Confidence())
			}
			fmt.Printf("  %-14s provider %s  claimed %s  verdict %-9s probable %s%s\n",
				r.ServerID, r.Provider, r.ClaimedCountry, r.Verdict, r.ProbableCountry, extra)
		}
	}

	if *telFlag {
		fmt.Fprint(os.Stderr, tel.Render())
	}
}

// runStreaming runs the audit engine without keeping any server's region
// and prints the tally off the verdict store. The verdicts are the
// default mode's; the figure renderings need the regions and are
// default-mode only.
func runStreaming(lab *experiments.Lab, tel *telemetry.Collector, start time.Time, batchSize, queueDepth int, provider string, verbose, telFlag bool) {
	auditor := lab.StreamingAuditor(batchSize, queueDepth)
	stats, err := auditor.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		log.Fatalf("streaming audit: %v", err)
	}
	st := auditor.Store().Stats()
	fmt.Fprintf(os.Stderr, "streamed %d servers in %v: %d audited, %d skipped, %d batches (%d measure / %d locate failures)\n",
		stats.Total, time.Since(start).Round(time.Millisecond),
		stats.Audited, stats.Skipped, stats.Batches, st.MeasureFailures, st.LocateFailures)
	if st.FaultyServers > 0 {
		fmt.Fprintf(os.Stderr,
			"fault injection: %d/%d servers degraded, %d retries, %d probe failures, %d lost landmarks, %d disconnects\n",
			st.DegradedServers, st.FaultyServers, st.Retries, st.ProbeFailures, st.LostLandmarks, st.Disconnects)
	}

	t := auditor.Store().Tally()
	total := t.Credible + t.Uncertain + t.False
	fmt.Printf("streaming audit tally over %d servers:\n", total)
	fmt.Printf("  credible  %4d\n", t.Credible)
	fmt.Printf("  uncertain %4d (%d on the claimed continent)\n", t.Uncertain, t.UncertainSameCont)
	fmt.Printf("  false     %4d (%d off-continent)\n", t.False, t.FalseOffContinent)
	fmt.Printf("  reclassified: %d by data-center metadata, %d by group disambiguation\n",
		st.ReclassifiedByDC, st.ReclassifiedByGroup)

	if verbose || provider != "" {
		fmt.Println("per-server verdicts:")
		for _, s := range lab.Fleet.Servers() {
			if provider != "" && s.Provider != provider {
				continue
			}
			v, probable, ok := auditor.Store().VerdictOf(s.Host.ID)
			if !ok {
				continue
			}
			fmt.Printf("  %-14s provider %s  claimed %s  verdict %-9s probable %s\n",
				s.Host.ID, s.Provider, s.ClaimedCountry, v, probable)
		}
	}

	if telFlag {
		fmt.Fprint(os.Stderr, tel.Render())
	}
}

// progressPrinter returns a telemetry progress callback that prints a
// throttled line per stage: roughly every 5% of the total, and always
// the final event.
func progressPrinter() func(telemetry.Progress) {
	return func(p telemetry.Progress) {
		step := p.Total / 20
		if step < 1 {
			step = 1
		}
		if p.Done%step == 0 || p.Done == p.Total {
			fmt.Fprintf(os.Stderr, "  %s: %d/%d\n", p.Stage, p.Done, p.Total)
		}
	}
}
