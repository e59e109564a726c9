package experiments

import (
	"fmt"
	"strings"

	"activegeo/internal/assess"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// The robustness experiment: how do the audit's verdicts and the five
// algorithms' prediction regions hold up as measurement conditions
// degrade? The paper's campaign (§2, §5) faced exactly these failures —
// dark landmarks, mid-session disconnects, congested tails — and
// Abdou & van Oorschot argue a geolocation verdict is only trustworthy
// if it is stable under degraded conditions. The sweep injects the
// default fault mix at increasing loss rates and records the
// credible/uncertain/false tallies and per-algorithm region sizes.

// DefaultLossSweep is the loss-rate grid the robustness experiment
// sweeps.
var DefaultLossSweep = []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20}

// RobustnessLossThreshold is the documented loss rate up to which the
// claim-assessment tallies must stay within RobustnessTallyTolerance of
// the fault-free baseline (see DESIGN.md §10). Beyond it the audit
// still runs — the annotations just stop pretending full confidence.
const RobustnessLossThreshold = 0.10

// RobustnessTallyTolerance is the maximum fraction of the fleet whose
// verdict may flip, per tally bucket, at or below the threshold.
const RobustnessTallyTolerance = 0.15

// FaultProfile builds the fault configuration described by the cmd
// layer's -faults/-loss/-outage flags: any of them arms the default mix
// (DefaultFaults) at the given loss rate (0.1 when unspecified), and
// -outage overrides the landmark-outage fraction. All zero = disabled.
func FaultProfile(armed bool, loss, outage float64) netsim.FaultConfig {
	if !armed && loss == 0 && outage == 0 {
		return netsim.FaultConfig{}
	}
	if loss == 0 {
		loss = 0.1
	}
	cfg := netsim.DefaultFaults(loss)
	if outage > 0 {
		cfg.OutageFraction = outage
	}
	return cfg
}

// AlgorithmArea is one algorithm's mean region size at one sweep point.
type AlgorithmArea struct {
	Algorithm   string
	Hosts       int
	MeanAreaKm2 float64
}

// RobustnessPoint is one loss rate's outcome.
type RobustnessPoint struct {
	Loss float64
	// Faults is netsim.DefaultFaults(Loss).
	Faults netsim.FaultConfig

	// Audit outcome at this loss rate.
	Tally           assess.Tally
	MeasureFailures int
	LocateFailures  int
	DegradedServers int
	Disconnects     int
	LostLandmarks   int
	Retries         int
	MeanCoverage    float64

	// Areas holds each algorithm's mean region size over the crowd
	// cohort, in sweep order CBG, Quasi-Octant, Spotter, Hybrid, CBG++.
	Areas []AlgorithmArea
}

// RobustnessResult is the full sweep.
type RobustnessResult struct {
	Points     []RobustnessPoint
	CrowdHosts int
}

// locators returns the five algorithms the sweep compares, in paper
// order with CBG++ last.
func (l *Lab) locators() []geoloc.Algorithm {
	return append(l.Algorithms(), l.CBGpp)
}

// Robustness sweeps the default fault mix over the given loss rates
// (DefaultLossSweep when nil), running the full audit plus a crowd-
// cohort localization with all five algorithms at each point. The
// lab's fault configuration and memoized audit are restored afterwards,
// so the sweep can run against any lab without disturbing it. maxHosts
// bounds the crowd cohort (0 = all).
func (l *Lab) Robustness(lossRates []float64, maxHosts int) (*RobustnessResult, error) {
	if lossRates == nil {
		lossRates = DefaultLossSweep
	}
	if maxHosts <= 0 || maxHosts > len(l.Crowd) {
		maxHosts = len(l.Crowd)
	}
	prevFaults := l.Net.Faults()
	prevAudit := l.audit
	defer func() {
		l.Net.SetFaults(prevFaults)
		l.audit = prevAudit
	}()

	res := &RobustnessResult{CrowdHosts: maxHosts}
	span := l.Telemetry.StartStage("robustness.sweep")
	defer span.End()
	for pi, loss := range lossRates {
		cfg := netsim.DefaultFaults(loss)
		l.Net.SetFaults(cfg)
		l.audit = nil
		run, err := l.Audit()
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness audit at loss %.2f: %w", loss, err)
		}
		pt := RobustnessPoint{
			Loss:            loss,
			Faults:          cfg,
			Tally:           assess.Tabulate(run.Results),
			MeasureFailures: run.MeasureFailures,
			LocateFailures:  run.LocateFailures,
			DegradedServers: run.DegradedServers,
			Disconnects:     run.Disconnects,
			LostLandmarks:   run.LostLandmarks,
			Retries:         run.Retries,
			MeanCoverage:    1,
		}
		if len(run.Coverage) > 0 {
			// Sum in the stable Results order, not map order: float
			// addition is order-sensitive in the last ULPs and the
			// sweep promises bit-identical results across runs.
			sum := 0.0
			for _, r := range run.Results {
				if c, ok := run.Coverage[r.ServerID]; ok {
					sum += c.Coverage()
				}
			}
			pt.MeanCoverage = sum / float64(len(run.Coverage))
		}
		pt.Areas = l.robustnessAreas(maxHosts)
		res.Points = append(res.Points, pt)
		l.Telemetry.Progress("robustness.sweep", pi+1, len(lossRates))
	}
	return res, nil
}

// robustnessAreas measures the crowd cohort under the network's current
// fault configuration and localizes each host with all five algorithms.
// Every host draws from its own (seed, salt 86, host ID) stream, so the
// sweep is deterministic at any concurrency and in any cohort order.
func (l *Lab) robustnessAreas(maxHosts int) []AlgorithmArea {
	locs := l.locators()
	areas := make([]AlgorithmArea, len(locs))
	for i, lc := range locs {
		areas[i].Algorithm = lc.Name()
	}
	pol := measure.PolicyFor(l.Net)
	for _, h := range l.Crowd[:maxHosts] {
		rng := l.rngFor(86, h.ID)
		tool := &measure.CLITool{Net: l.Net}
		tp := &measure.TwoPhase{Cons: l.Cons, Tool: tool}
		if pol.Enabled() {
			sess := measure.NewSession(l.Net, pol, rng)
			tool.Clock = sess.Clock
			tp.Session = sess
		}
		mres, err := tp.Run(h.ID, rng)
		if err != nil {
			continue
		}
		ms := mres.Measurements()
		if len(ms) < 4 {
			continue
		}
		for i, lc := range locs {
			region, err := lc.Locate(ms)
			if err != nil || region == nil || region.Empty() {
				continue
			}
			areas[i].Hosts++
			areas[i].MeanAreaKm2 += region.AreaKm2()
		}
	}
	for i := range areas {
		if areas[i].Hosts > 0 {
			areas[i].MeanAreaKm2 /= float64(areas[i].Hosts)
		}
	}
	return areas
}

// WithinTolerance reports whether the point's tally is within tol of
// the baseline, bucket by bucket, as a fraction of the fleet size.
func (p *RobustnessPoint) WithinTolerance(baseline assess.Tally, tol float64) bool {
	total := baseline.Total()
	if total == 0 {
		return true
	}
	limit := tol * float64(total)
	diff := func(a, b int) float64 {
		d := float64(a - b)
		if d < 0 {
			d = -d
		}
		return d
	}
	return diff(p.Tally.Credible, baseline.Credible) <= limit &&
		diff(p.Tally.Uncertain, baseline.Uncertain) <= limit &&
		diff(p.Tally.False, baseline.False) <= limit
}

// Render formats the sweep as a table.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness | audit tallies and region sizes vs injected loss (%d crowd hosts; tolerance ±%.0f%% up to loss %.2f):\n",
		r.CrowdHosts, 100*RobustnessTallyTolerance, RobustnessLossThreshold)
	fmt.Fprintf(&b, "  %-6s %-22s %-10s %-28s %s\n", "loss", "credible/uncertain/false", "coverage", "failures (meas/loc/disc)", "mean region km² per algorithm")
	for _, p := range r.Points {
		var parts []string
		for _, a := range p.Areas {
			parts = append(parts, fmt.Sprintf("%s:%.0f", a.Algorithm, a.MeanAreaKm2))
		}
		fmt.Fprintf(&b, "  %-6.2f %4d/%4d/%4d           %-10.3f %4d/%d/%d                      %s\n",
			p.Loss, p.Tally.Credible, p.Tally.Uncertain, p.Tally.False,
			p.MeanCoverage, p.MeasureFailures, p.LocateFailures, p.Disconnects,
			strings.Join(parts, " "))
	}
	return b.String()
}
