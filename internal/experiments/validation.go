package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// Fig2Result is one anchor's calibration, with every model's fit: the
// CBG baseline/bestline/slowline and Spotter's µ/σ curves evaluated at
// reference delays, plus the Quasi-Octant hull sizes.
type Fig2Result struct {
	AnchorID        netsim.HostID
	Points          int
	BestlineSpeed   float64 // km/ms (paper's example: 93.5)
	BestlineIcpt    float64 // ms
	BaselineSpeed   float64 // always 200
	SlowlineSpeed   float64 // always 84.5
	OctMaxKnots     int
	OctMinKnots     int
	SpotterMu100    float64 // µ at 100 ms one-way
	SpotterSigma100 float64
}

// Fig2Calibration reproduces Figure 2 for the first anchor.
func (l *Lab) Fig2Calibration() (*Fig2Result, error) {
	anchor := l.Cons.Anchors()[0]
	pts := l.Cons.Calibration(anchor.Host.ID)
	line := l.CBG.Calibration().Line(anchor.Host.ID)
	model := l.Spotter.Model()

	oneWay := cbg.ToOneWay(pts)
	lower := mathx.LowerHull(oneWay)
	upper := mathx.UpperHull(oneWay)

	return &Fig2Result{
		AnchorID:        anchor.Host.ID,
		Points:          len(pts),
		BestlineSpeed:   1 / line.Slope,
		BestlineIcpt:    line.Intercept,
		BaselineSpeed:   geo.BaselineSpeedKmPerMs,
		SlowlineSpeed:   geo.SlowlineSpeedKmPerMs,
		OctMaxKnots:     len(lower),
		OctMinKnots:     len(upper),
		SpotterMu100:    model.MuKm(100),
		SpotterSigma100: model.SigmaKm(100),
	}, nil
}

// Render formats the result as the figure's caption row.
func (r *Fig2Result) Render() string {
	return fmt.Sprintf(
		"Fig 2 | anchor %s: %d calibration points; bestline %.1f km/ms (+%.1f ms), baseline %.0f, slowline %.1f; octant hull %d/%d knots; spotter µ(100ms)=%.0f km σ=%.0f km",
		r.AnchorID, r.Points, r.BestlineSpeed, r.BestlineIcpt, r.BaselineSpeed,
		r.SlowlineSpeed, r.OctMaxKnots, r.OctMinKnots, r.SpotterMu100, r.SpotterSigma100)
}

// Fig4Result is the tool-validation regression of §4.3.
type Fig4Result struct {
	OneTripSlope float64 // ms per ms of base RTT
	TwoTripSlope float64
	SlopeRatio   float64 // paper: 1.96 on Linux
	R2           float64 // paper: 0.9942
	CLISlope     float64 // CLI tool, always one trip
	// SlopeCI95 is the half-width of the one-trip slope's 95% CI (the
	// gray band of the paper's figure).
	SlopeCI95 float64
	// ToolF and ToolP test whether distinguishing the CLI tool from the
	// web tool's one-trip group improves the model — the paper's ANOVA
	// found no significant difference (F = 0.8262, p = 0.44).
	ToolF float64
	ToolP float64
}

// Fig4ToolValidation compares the CLI tool with the web tool on Linux
// from a host in a known location.
func (l *Lab) Fig4ToolValidation() (*Fig4Result, error) {
	from := netsim.HostID("fig4-client")
	if l.Net.Host(from) == nil {
		if err := l.Net.AddHost(&netsim.Host{ID: from, Loc: geo.Point{Lat: 48.86, Lon: 2.35}}); err != nil {
			return nil, err
		}
	}
	cli := &measure.CLITool{Net: l.Net}
	web := &measure.WebTool{Net: l.Net, OS: measure.Linux}

	// One stream per anchor, CLI drawn before web: both samples are a
	// pure function of (seed, anchor ID), so worker scheduling cannot
	// change them and the regression is identical at any concurrency.
	anchors := l.Cons.Anchors()
	type fig4Slot struct {
		base   float64
		cliRTT float64
		cliOK  bool
		web    measure.Sample
		webOK  bool
	}
	slots := make([]fig4Slot, len(anchors))
	span := l.Telemetry.StartStage("fig4.measure")
	parallelFor(len(anchors), l.Concurrency(), func(i int) {
		lm := anchors[i]
		base, err := l.Net.BaseRTTMs(from, lm.Host.ID)
		if err != nil {
			return
		}
		slots[i].base = base
		rng := l.rngFor(4, lm.Host.ID)
		if s, err := cli.Measure(from, lm, rng); err == nil {
			slots[i].cliRTT, slots[i].cliOK = s.RTTms, true
		}
		if s, err := web.Measure(from, lm, rng); err == nil {
			slots[i].web, slots[i].webOK = s, true
		}
	})
	span.End()

	var x1, y1, x2, y2, xc, yc []float64
	for i := range slots {
		sl := &slots[i]
		if sl.cliOK {
			xc, yc = append(xc, sl.base), append(yc, sl.cliRTT)
		}
		if !sl.webOK {
			continue
		}
		if sl.web.Trips == 2 {
			x2, y2 = append(x2, sl.base), append(y2, sl.web.RTTms)
		} else {
			x1, y1 = append(x1, sl.base), append(y1, sl.web.RTTms)
		}
	}
	l1ci, err := mathx.FitLineCI(x1, y1)
	if err != nil {
		return nil, err
	}
	l1 := l1ci.Line
	l2, err := mathx.FitLineThroughOrigin(x2, y2)
	if err != nil {
		return nil, err
	}
	lc, err := mathx.FitLineThroughOrigin(xc, yc)
	if err != nil {
		return nil, err
	}
	// Pooled R² of the two-group model.
	var ys, preds []float64
	for i := range x1 {
		ys, preds = append(ys, y1[i]), append(preds, l1.At(x1[i]))
	}
	for i := range x2 {
		ys, preds = append(ys, y2[i]), append(preds, l2.At(x2[i]))
	}

	// ANOVA across tools (§4.3): does giving the CLI tool its own line,
	// separate from the web tool's one-trip group, explain the one-trip
	// data significantly better? Reduced model: one pooled line. Full
	// model: a line per tool.
	pooledX := append(append([]float64(nil), x1...), xc...)
	pooledY := append(append([]float64(nil), y1...), yc...)
	pooledLine, err := mathx.FitLine(pooledX, pooledY)
	if err != nil {
		return nil, err
	}
	cliLine, err := mathx.FitLine(xc, yc)
	if err != nil {
		return nil, err
	}
	rss := func(x, y []float64, l mathx.Line) float64 {
		var s float64
		for i := range x {
			r := y[i] - l.At(x[i])
			s += r * r
		}
		return s
	}
	rssReduced := rss(pooledX, pooledY, pooledLine)
	rssFull := rss(x1, y1, l1) + rss(xc, yc, cliLine)
	dfReduced := len(pooledX) - 2
	dfFull := len(pooledX) - 4
	f := mathx.FTestNested(rssReduced, rssFull, dfReduced, dfFull)
	p := mathx.FTestPValue(f, dfReduced-dfFull, dfFull)

	return &Fig4Result{
		OneTripSlope: l1.Slope,
		TwoTripSlope: l2.Slope,
		SlopeRatio:   l2.Slope / l1.Slope,
		R2:           mathx.RSquared(ys, preds),
		CLISlope:     lc.Slope,
		SlopeCI95:    l1ci.SlopeCI95,
		ToolF:        f,
		ToolP:        p,
	}, nil
}

// Render formats the result.
func (r *Fig4Result) Render() string {
	return fmt.Sprintf(
		"Fig 4 | Linux web tool: 1-trip slope %.3f±%.3f, 2-trip slope %.3f, ratio %.2f (paper 1.96), R²=%.4f (paper 0.9942); CLI slope %.3f; tool ANOVA F=%.2f p=%.2f (paper F=0.83 p=0.44)",
		r.OneTripSlope, r.SlopeCI95, r.TwoTripSlope, r.SlopeRatio, r.R2, r.CLISlope, r.ToolF, r.ToolP)
}

// Fig5Row is one browser's Windows noise profile.
type Fig5Row struct {
	Browser       string
	SlopeRatio    float64
	HighOutliers  int
	Samples       int
	MeanOutlierMs float64
}

// Fig5Windows reproduces Figures 5–6: the web tool under Windows
// browsers, with high outliers split out.
func (l *Lab) Fig5Windows() ([]Fig5Row, error) {
	from := netsim.HostID("fig5-client")
	if l.Net.Host(from) == nil {
		if err := l.Net.AddHost(&netsim.Host{ID: from, Loc: geo.Point{Lat: 48.86, Lon: 2.35}}); err != nil {
			return nil, err
		}
	}
	browsers := []struct {
		name string
		b    measure.Browser
	}{{"Chrome", measure.Chrome}, {"Firefox", measure.Firefox}, {"Edge", measure.Edge}}

	anchors := l.Cons.Anchors()
	const rounds = 2
	span := l.Telemetry.StartStage("fig5.measure")
	var rows []Fig5Row
	for bi, br := range browsers {
		web := &measure.WebTool{Net: l.Net, OS: measure.Windows, Browser: br.b}
		// Flatten rounds×anchors into one job list; each job draws from a
		// stream salted by (browser, round, anchor), so two rounds at the
		// same anchor still see independent noise and results are
		// identical at any concurrency.
		type fig5Slot struct {
			base float64
			s    measure.Sample
			ok   bool
		}
		slots := make([]fig5Slot, rounds*len(anchors))
		parallelFor(len(slots), l.Concurrency(), func(j int) {
			round, ai := j/len(anchors), j%len(anchors)
			lm := anchors[ai]
			base, err := l.Net.BaseRTTMs(from, lm.Host.ID)
			if err != nil {
				return
			}
			rng := l.rngFor(int64(500+10*bi+round), lm.Host.ID)
			s, err := web.Measure(from, lm, rng)
			if err != nil {
				return
			}
			slots[j] = fig5Slot{base: base, s: s, ok: true}
		})

		var x1, y1, x2, y2 []float64
		outliers, outlierSum := 0, 0.0
		samples := 0
		for _, sl := range slots {
			if !sl.ok {
				continue
			}
			samples++
			expected := sl.base * float64(sl.s.Trips)
			if sl.s.RTTms > expected+400 {
				outliers++
				outlierSum += sl.s.RTTms
				continue
			}
			if sl.s.Trips == 2 {
				x2, y2 = append(x2, sl.base), append(y2, sl.s.RTTms)
			} else {
				x1, y1 = append(x1, sl.base), append(y1, sl.s.RTTms)
			}
		}
		l1, err := mathx.FitLineThroughOrigin(x1, y1)
		if err != nil {
			return nil, err
		}
		l2, err := mathx.FitLineThroughOrigin(x2, y2)
		if err != nil {
			return nil, err
		}
		row := Fig5Row{
			Browser:      br.name,
			SlopeRatio:   l2.Slope / l1.Slope,
			HighOutliers: outliers,
			Samples:      samples,
		}
		if outliers > 0 {
			row.MeanOutlierMs = outlierSum / float64(outliers)
		}
		rows = append(rows, row)
	}
	span.End()
	return rows, nil
}

// RenderFig5 formats the rows.
func RenderFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5/6 | Windows browsers (paper: ratio 2.29, browser-dependent outliers):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s slope ratio %.2f, high outliers %d/%d (mean %.0f ms)\n",
			r.Browser, r.SlopeRatio, r.HighOutliers, r.Samples, r.MeanOutlierMs)
	}
	return b.String()
}

// Fig9Row summarizes one algorithm's precision CDFs over the cohort.
type Fig9Row struct {
	Algorithm string
	Hosts     int
	// Coverage is the fraction of hosts whose true location is inside
	// the prediction (paper panel A at x=0: CBG 0.90, the others ~0.50).
	Coverage float64
	// MissP90/P97: the distance from the region edge to the true
	// location at those CDF quantiles (paper: CBG < 5000 km at 97%).
	MissMedian float64
	MissP90    float64
	MissP97    float64
	// CentroidMedian is the median centroid-to-truth distance (panel B).
	CentroidMedian float64
	// AreaMedianFrac is the median region area as a fraction of Earth's
	// land area (panel C; land ≈ 150 Mm²).
	AreaMedianFrac float64
}

// earthLandAreaKm2 is the paper's reference land area (≈150 Mm²).
const earthLandAreaKm2 = 150e6

// Fig9HostRecord is one host×algorithm observation — a single point of
// the paper's three Figure 9 CDF panels.
type Fig9HostRecord struct {
	Algorithm    string
	Host         string
	MissKm       float64 // panel A: distance from region edge to truth
	CentroidKm   float64 // panel B: distance from centroid to truth
	AreaLandFrac float64 // panel C: region area / Earth land area
	Empty        bool
}

// Fig9AlgorithmComparison runs all four §3 algorithms over the
// crowdsourced cohort measured with the web tool.
func (l *Lab) Fig9AlgorithmComparison() ([]Fig9Row, error) {
	rows, _, err := l.Fig9Detailed()
	return rows, err
}

// Fig9Detailed additionally returns the per-host records behind the CDFs.
func (l *Lab) Fig9Detailed() ([]Fig9Row, []Fig9HostRecord, error) {
	type hostMeas struct {
		id    string
		truth geo.Point
		ms    []geoloc.Measurement
		ok    bool
	}
	// Measurement phase: every crowd host draws from its own stream, so
	// the cohort's samples are independent of worker scheduling.
	raw := make([]hostMeas, len(l.Crowd))
	span := l.Telemetry.StartStage("fig9.measure")
	parallelFor(len(l.Crowd), l.Concurrency(), func(i int) {
		h := l.Crowd[i]
		samples := h.MeasureAllAnchors(l.Cons, l.rngFor(9, h.ID))
		if len(samples) < 8 {
			return
		}
		raw[i] = hostMeas{id: string(h.ID), truth: h.TrueLoc, ms: measure.Measurements(samples), ok: true}
	})
	span.End()
	var data []hostMeas
	for _, d := range raw {
		if d.ok {
			data = append(data, d)
		}
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("experiments: no crowd measurements")
	}

	// Localization phase: Locate is deterministic given the measurements
	// (and all calibration state is read-only), so parallelizing per host
	// needs only per-index slots merged in cohort order.
	span = l.Telemetry.StartStage("fig9.locate")
	var rows []Fig9Row
	var records []Fig9HostRecord
	for _, alg := range l.Algorithms() {
		recs := make([]Fig9HostRecord, len(data))
		parallelFor(len(data), l.Concurrency(), func(i int) {
			d := data[i]
			rec := Fig9HostRecord{Algorithm: alg.Name(), Host: d.id}
			region, err := alg.Locate(d.ms)
			if err != nil || region == nil || region.Empty() {
				rec.Empty = true
				rec.MissKm, rec.CentroidKm = geo.HalfEquatorKm, geo.HalfEquatorKm
			} else {
				rec.MissKm = region.DistanceToPointKm(d.truth)
				c, _ := region.Centroid()
				rec.CentroidKm = geo.DistanceKm(c, d.truth)
				rec.AreaLandFrac = region.AreaKm2() / earthLandAreaKm2
			}
			recs[i] = rec
		})
		var misses, centroids, areas []float64
		covered := 0
		for _, rec := range recs {
			records = append(records, rec)
			misses = append(misses, rec.MissKm)
			centroids = append(centroids, rec.CentroidKm)
			if rec.Empty {
				areas = append(areas, 0)
				continue
			}
			if rec.MissKm <= 0 {
				covered++
			}
			areas = append(areas, rec.AreaLandFrac)
		}
		rows = append(rows, Fig9Row{
			Algorithm:      alg.Name(),
			Hosts:          len(data),
			Coverage:       float64(covered) / float64(len(data)),
			MissMedian:     mathx.Quantile(misses, 0.5),
			MissP90:        mathx.Quantile(misses, 0.9),
			MissP97:        mathx.Quantile(misses, 0.97),
			CentroidMedian: mathx.Quantile(centroids, 0.5),
			AreaMedianFrac: mathx.Quantile(areas, 0.5),
		})
	}
	span.End()
	return rows, records, nil
}

// RenderFig9 formats the rows.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 | algorithm comparison over %d crowd hosts (paper: CBG covers 90%%, others ~50%%; CBG regions much larger):\n", rows[0].Hosts)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-13s coverage %.0f%%  miss p50/p90/p97 %6.0f/%6.0f/%6.0f km  centroid p50 %6.0f km  area p50 %.3f of land\n",
			r.Algorithm, 100*r.Coverage, r.MissMedian, r.MissP90, r.MissP97, r.CentroidMedian, r.AreaMedianFrac)
	}
	return b.String()
}

// Fig10Result summarizes bestline/baseline estimate-to-truth ratios over
// all anchor pairs.
type Fig10Result struct {
	Pairs               int
	BestlineUnderFrac   float64 // fraction of bestline estimates below truth (paper: small)
	BaselineUnderFrac   float64 // fraction of baseline estimates below truth (paper: tiny, short distances only)
	BestlineMedianRatio float64
}

// Fig10EstimateRatios computes the Figure 10 distributions, using the
// landmarks themselves as targets of one another (as the paper does,
// because their positions are exactly known).
func (l *Lab) Fig10EstimateRatios() (*Fig10Result, error) {
	cal := l.CBGpp.Calibration()
	anchors := l.Cons.Anchors()
	// Pure computation over the calibration pairs — no randomness — so
	// parallelizing per anchor with partials merged in anchor order is
	// trivially deterministic.
	type fig10Part struct {
		pairs, bestUnder, baseUnder int
		ratios                      []float64
	}
	parts := make([]fig10Part, len(anchors))
	span := l.Telemetry.StartStage("fig10.pairs")
	parallelFor(len(anchors), l.Concurrency(), func(i int) {
		a := anchors[i]
		p := &parts[i]
		for _, pair := range l.Cons.CalibrationPairs(a.Host.ID) {
			truth := pair.DistKm
			if truth < 1 {
				continue
			}
			oneWay := geo.OneWayMs(pair.MinRTTms())
			best := cal.MaxDistanceKm(a.Host.ID, oneWay)
			base := geo.MaxDistanceKm(oneWay, geo.BaselineSpeedKmPerMs)
			p.pairs++
			if best < truth {
				p.bestUnder++
			}
			if base < truth {
				p.baseUnder++
			}
			p.ratios = append(p.ratios, best/truth)
		}
	})
	span.End()
	res := &Fig10Result{}
	var ratios []float64
	for i := range parts {
		res.Pairs += parts[i].pairs
		res.BestlineUnderFrac += float64(parts[i].bestUnder)
		res.BaselineUnderFrac += float64(parts[i].baseUnder)
		ratios = append(ratios, parts[i].ratios...)
	}
	if res.Pairs == 0 {
		return nil, fmt.Errorf("experiments: no pairs")
	}
	res.BestlineUnderFrac /= float64(res.Pairs)
	res.BaselineUnderFrac /= float64(res.Pairs)
	res.BestlineMedianRatio = mathx.Quantile(ratios, 0.5)
	return res, nil
}

// Render formats the result.
func (r *Fig10Result) Render() string {
	return fmt.Sprintf(
		"Fig 10 | %d anchor pairs: bestline underestimates %.1f%% (paper: a small fraction), baseline underestimates %.2f%%, median bestline/true ratio %.2f",
		r.Pairs, 100*r.BestlineUnderFrac, 100*r.BaselineUnderFrac, r.BestlineMedianRatio)
}

// Fig11Bin is one distance bin of the landmark-effectiveness analysis.
type Fig11Bin struct {
	MaxDistKm     float64
	Effective     int
	Ineffective   int
	MeanReduction float64 // km², over effective measurements
}

// Fig11Result is the full Figure 11 histogram plus the correlation the
// paper reports as absent.
type Fig11Result struct {
	Bins []Fig11Bin
	// Correlation between landmark distance and area reduction among
	// effective measurements (paper: none; |r| small).
	DistanceReductionCorr float64
}

// Fig11LandmarkEffectiveness measures, over a subset of crowd hosts
// against all anchors, which measurements actually shrink the CBG++
// prediction.
func (l *Lab) Fig11LandmarkEffectiveness(maxHosts int) (*Fig11Result, error) {
	if maxHosts <= 0 || maxHosts > len(l.Crowd) {
		maxHosts = len(l.Crowd)
	}
	edges := []float64{1000, 2500, 5000, 7500, 10000, 15000, geo.HalfEquatorKm}
	bins := make([]Fig11Bin, len(edges))
	for i, e := range edges {
		bins[i].MaxDistKm = e
	}

	// Each host's leave-one-out sweep is independent: it accumulates into
	// local bins (with MeanReduction holding the sum until the final
	// division) and local dists/reductions, merged in host order below.
	type fig11Part struct {
		bins              []Fig11Bin
		dists, reductions []float64
	}
	parts := make([]fig11Part, maxHosts)
	span := l.Telemetry.StartStage("fig11.measure")
	parallelFor(maxHosts, l.Concurrency(), func(hi int) {
		h := l.Crowd[hi]
		samples := h.MeasureAllAnchors(l.Cons, l.rngFor(11, h.ID))
		ms := measure.Measurements(samples)
		if len(ms) < 8 {
			return
		}
		full, err := l.CBGpp.Locate(ms)
		if err != nil || full.Empty() {
			return
		}
		part := &parts[hi]
		part.bins = make([]Fig11Bin, len(edges))
		fullArea := full.AreaKm2()
		for drop := range ms {
			subset := make([]geoloc.Measurement, 0, len(ms)-1)
			subset = append(subset, ms[:drop]...)
			subset = append(subset, ms[drop+1:]...)
			without, err := l.CBGpp.Locate(subset)
			if err != nil {
				continue
			}
			reduction := without.AreaKm2() - fullArea
			dist := geo.DistanceKm(ms[drop].Landmark, h.TrueLoc)
			bi := 0
			for bi < len(edges)-1 && dist > edges[bi] {
				bi++
			}
			if reduction > 1 { // the measurement shrank the region
				part.bins[bi].Effective++
				part.bins[bi].MeanReduction += reduction
				part.dists = append(part.dists, dist)
				part.reductions = append(part.reductions, reduction)
			} else {
				part.bins[bi].Ineffective++
			}
		}
	})
	span.End()

	var dists, reductions []float64
	for hi := range parts {
		part := &parts[hi]
		for bi := range part.bins {
			bins[bi].Effective += part.bins[bi].Effective
			bins[bi].Ineffective += part.bins[bi].Ineffective
			bins[bi].MeanReduction += part.bins[bi].MeanReduction
		}
		dists = append(dists, part.dists...)
		reductions = append(reductions, part.reductions...)
	}
	for i := range bins {
		if bins[i].Effective > 0 {
			bins[i].MeanReduction /= float64(bins[i].Effective)
		}
	}
	res := &Fig11Result{Bins: bins}
	if len(dists) > 2 {
		res.DistanceReductionCorr = pearson(dists, reductions)
	}
	return res, nil
}

func pearson(x, y []float64) float64 {
	mx, my := mathx.Mean(x), mathx.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// Render formats the result.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 | landmark effectiveness (paper: effective measurements come from nearby landmarks; no distance↔reduction correlation):\n")
	for _, bin := range r.Bins {
		total := bin.Effective + bin.Ineffective
		if total == 0 {
			continue
		}
		fmt.Fprintf(&b, "  ≤%6.0f km: %3d effective / %3d total (%.0f%%), mean reduction %.2e km²\n",
			bin.MaxDistKm, bin.Effective, total, 100*float64(bin.Effective)/float64(total), bin.MeanReduction)
	}
	fmt.Fprintf(&b, "  distance↔reduction correlation r=%.3f\n", r.DistanceReductionCorr)
	return b.String()
}

// CoverageResult is the §5.1 headline: CBG++ eliminates CBG's misses.
type CoverageResult struct {
	Hosts       int
	CBGMisses   int
	CBGEmpty    int
	CBGppMisses int
	CBGppEmpty  int
}

// CBGppCoverage reruns the crowd validation with both CBG and CBG++.
func (l *Lab) CBGppCoverage() (*CoverageResult, error) {
	// Tolerate one grid cell of slack when deciding "covered": the
	// discretized region boundary is a cell wide.
	slack := 1.2 * grid.KmPerDeg * l.Env.Grid.Resolution()
	type covSlot struct {
		measured                           bool
		cbgMiss, cbgEmpty, ppMiss, ppEmpty bool
	}
	slots := make([]covSlot, len(l.Crowd))
	span := l.Telemetry.StartStage("coverage.measure")
	parallelFor(len(l.Crowd), l.Concurrency(), func(i int) {
		h := l.Crowd[i]
		samples := h.MeasureAllAnchors(l.Cons, l.rngFor(51, h.ID))
		ms := measure.Measurements(samples)
		if len(ms) < 8 {
			return
		}
		sl := &slots[i]
		sl.measured = true
		if region, err := l.CBG.Locate(ms); err != nil || region.Empty() {
			sl.cbgEmpty, sl.cbgMiss = true, true
		} else if region.DistanceToPointKm(h.TrueLoc) > slack {
			sl.cbgMiss = true
		}
		if region, err := l.CBGpp.Locate(ms); err != nil || region.Empty() {
			sl.ppEmpty, sl.ppMiss = true, true
		} else if region.DistanceToPointKm(h.TrueLoc) > slack {
			sl.ppMiss = true
		}
	})
	span.End()
	res := &CoverageResult{}
	for _, sl := range slots {
		if !sl.measured {
			continue
		}
		res.Hosts++
		if sl.cbgMiss {
			res.CBGMisses++
		}
		if sl.cbgEmpty {
			res.CBGEmpty++
		}
		if sl.ppMiss {
			res.CBGppMisses++
		}
		if sl.ppEmpty {
			res.CBGppEmpty++
		}
	}
	return res, nil
}

// Render formats the result.
func (r *CoverageResult) Render() string {
	return fmt.Sprintf(
		"§5.1 | coverage over %d crowd hosts: CBG missed %d (%d empty regions); CBG++ missed %d (%d empty) — paper: CBG++ eliminated all remaining misses",
		r.Hosts, r.CBGMisses, r.CBGEmpty, r.CBGppMisses, r.CBGppEmpty)
}

// sortedAnchorIDs is a test helper exposed for determinism checks.
func (l *Lab) sortedAnchorIDs() []string {
	ids := make([]string, 0, len(l.Cons.Anchors()))
	for _, a := range l.Cons.Anchors() {
		ids = append(ids, string(a.Host.ID))
	}
	sort.Strings(ids)
	return ids
}
