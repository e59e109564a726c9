package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/geo"
	"activegeo/internal/iclab"
	"activegeo/internal/ipdb"
	"activegeo/internal/mathx"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/parallel"
	"activegeo/internal/proxy"
	"activegeo/internal/stream"
	"activegeo/internal/worldmap"
)

// Fig13Result is the direct-vs-indirect RTT calibration.
type Fig13Result struct {
	Proxies int
	Eta     float64 // paper: 0.49
	R2      float64 // paper: > 0.99
}

// Fig13Eta estimates η from the pingable subset of the fleet: direct
// pings from the client to each proxy, against self-pings through it.
// Each proxy draws from its own seeded stream, so the calibration is
// identical at any concurrency and in any fleet order.
func (l *Lab) Fig13Eta() (*Fig13Result, error) {
	pingable := l.Fleet.Pingable()
	type etaPair struct {
		direct, indirect float64
		ok               bool
	}
	pairs := make([]etaPair, len(pingable))
	span := l.Telemetry.StartStage("fig13.measure")
	parallel.For(context.Background(), len(pingable), l.Concurrency(), func(i int) {
		s := pingable[i]
		rng := l.rngFor(13, s.Host.ID)
		// Direct and indirect measurements both take min-of-8 samples:
		// jitter must be suppressed on both axes, or the regression's R²
		// reflects queueing noise rather than the leg relationship.
		d, err := l.Net.MinOfSamples(l.Client, s.Host.ID, 8, rng)
		if err != nil {
			return
		}
		pt := &measure.ProxiedTool{Net: l.Net, Client: l.Client, Proxy: s.Host.ID, Attempts: 8}
		ind, err := pt.SelfPing(rng)
		if err != nil {
			return
		}
		pairs[i] = etaPair{direct: d, indirect: ind, ok: true}
	})
	span.End()
	var direct, indirect []float64
	for _, p := range pairs {
		if p.ok {
			direct = append(direct, p.direct)
			indirect = append(indirect, p.indirect)
		}
	}
	if len(direct) < 3 {
		return nil, fmt.Errorf("experiments: only %d pingable proxies", len(direct))
	}
	eta, r2, err := measure.EstimateEta(direct, indirect)
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Proxies: len(direct), Eta: eta, R2: r2}, nil
}

// Render formats the result.
func (r *Fig13Result) Render() string {
	return fmt.Sprintf("Fig 13 | η over %d pingable proxies: slope %.3f (paper 0.49), R²=%.4f (paper >0.99)", r.Proxies, r.Eta, r.R2)
}

// Fig14Result is the provider-market claim ranking.
type Fig14Result struct {
	Entries []proxy.MarketEntry
}

// Fig14Market generates the 157-provider market overview.
func (l *Lab) Fig14Market() *Fig14Result {
	return &Fig14Result{Entries: proxy.Market(l.rng(14))}
}

// Render formats the studied providers' ranks.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 | claim breadth over %d providers (studied providers marked):\n", len(r.Entries))
	for rank, e := range r.Entries {
		if e.Studied {
			fmt.Fprintf(&b, "  rank %3d: provider %s claims %d countries\n", rank+1, e.Name, e.Countries)
		}
	}
	return b.String()
}

// ServerError records why one server produced no prediction region.
type ServerError = stream.ServerError

// AuditRun is the memoized output of the full §6 pipeline.
type AuditRun struct {
	Results []*assess.Result
	// byServer maps server IDs to results for cross-referencing.
	byServer map[string]*assess.Result
	// store is the engine's verdict store the run was read from; it
	// serializes the run's fingerprint.
	store *stream.Store
	// Stats are the store's aggregates: reclassifications by data
	// centers and by AS//24 groups, failures by stage, the fault ledger
	// totals and the adversary counts.
	stream.Stats

	// Errors maps server IDs to the reason the pipeline produced no
	// region for them. Such servers are assessed against an empty
	// region (verdict uncertain), but the Figure 17 tallies can now
	// distinguish "measured and uncertain" from "never measured".
	Errors map[string]ServerError

	// Coverage maps server IDs to their fault ledgers. Only populated
	// when fault injection is armed: on the fault-free path the map is
	// empty and the audit output is unchanged.
	Coverage map[string]*measure.Degradation

	// Adversary-detection outputs. Only populated when the lab's
	// adversary plan is armed: on the honest path every field below is
	// zero and the audit output is byte-identical to the pre-adversary
	// engine.
	AdversaryArmed bool
	// Landmarks is the inter-anchor cross-validation report; its
	// Flagged IDs (copied here, sorted) were excluded from every
	// server's localization inputs — Stats.ExcludedMeasurements counts
	// the samples dropped that way.
	Landmarks        *detect.LandmarkReport
	FlaggedLandmarks []netsim.HostID
	// Inspections maps server IDs to their full manipulation
	// inspection (the verdict fields on assess.Result are a summary of
	// these).
	Inspections map[string]detect.Inspection
}

// Audit runs (once) the full pipeline: for every server, self-ping,
// two-phase measurement through the proxy with the CLI tool, η
// correction, CBG++ localization, claim assessment, then data-center and
// metadata disambiguation.
//
// It is one full-fleet pass of the streaming engine (StreamingAuditor at
// the default batch geometry), which keeps each batch's per-server
// results, regions included, for the figures. The final verdicts and
// aggregates are read back from the engine's store. Every server draws
// from its own stream seeded by (lab seed, server ID), so a serial run
// (Concurrency: 1) and an N-worker run produce byte-identical verdicts;
// concurrency changes only the wall-clock time.
func (l *Lab) Audit() (*AuditRun, error) {
	if l.audit != nil {
		return l.audit, nil
	}
	servers := l.Fleet.Servers()
	run := &AuditRun{
		Results:  make([]*assess.Result, 0, len(servers)),
		byServer: make(map[string]*assess.Result, len(servers)),
		Errors:   map[string]ServerError{},
		Coverage: map[string]*measure.Degradation{},
	}
	cfg := l.streamConfig(0, 0)
	// Batches arrive in fleet order: a fresh store makes every server
	// dirty, and the worker writes batches in the order they form.
	cfg.OnBatchDone = func(bs stream.BatchStats) {
		for i, r := range bs.Results {
			run.Results = append(run.Results, r)
			run.byServer[r.ServerID] = r
			if e := bs.Errors[i]; e != nil {
				run.Errors[r.ServerID] = *e
			}
		}
	}
	auditor := stream.New(cfg)
	if _, err := auditor.Sync(context.Background(), l.StreamSource()); err != nil {
		return nil, err
	}

	store := auditor.Store()
	run.store = store
	run.AdversaryArmed = l.Adversary.Enabled()
	if run.AdversaryArmed {
		run.Landmarks = auditor.Landmarks()
		run.FlaggedLandmarks = append([]netsim.HostID(nil), run.Landmarks.Flagged...)
		run.Inspections = make(map[string]detect.Inspection, len(servers))
	}
	for _, r := range run.Results {
		id := netsim.HostID(r.ServerID)
		r.Verdict, r.ProbableCountry, _ = store.VerdictOf(id)
		if d := store.CoverageOf(id); d != nil {
			run.Coverage[r.ServerID] = d
		}
		if run.AdversaryArmed {
			insp, _ := store.InspectionOf(id)
			run.Inspections[r.ServerID] = insp
			r.ManipulationSuspected = insp.Suspected
			r.ManipulationScore = insp.Score
			r.ManipulationReasons = insp.Reasons
		}
	}
	run.Stats = store.Stats()
	l.audit = run
	return run, nil
}

// Fig17Result is the overall assessment.
type Fig17Result struct {
	Tally               assess.Tally
	ReclassifiedByDC    int
	ReclassifiedByGroup int
	// MeasureFailures/LocateFailures split the uncertain verdicts that
	// stem from pipeline failures (no region at all) from genuinely
	// measured-but-ambiguous servers.
	MeasureFailures int
	LocateFailures  int
	TopClaimed      []assess.CountryBar // countries by claimed count
	TopProbable     []assess.CountryBar // countries by probable (measured) count
}

// Fig17Assessment tabulates the audit.
func (l *Lab) Fig17Assessment() (*Fig17Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &Fig17Result{
		Tally:               assess.Tabulate(run.Results),
		ReclassifiedByDC:    run.ReclassifiedByDC,
		ReclassifiedByGroup: run.ReclassifiedByGroup,
		MeasureFailures:     run.MeasureFailures,
		LocateFailures:      run.LocateFailures,
		TopClaimed: assess.CountryBreakdown(run.Results, func(r *assess.Result) string {
			return r.ClaimedCountry
		}),
		TopProbable: assess.CountryBreakdown(run.Results, func(r *assess.Result) string {
			return r.ProbableCountry
		}),
	}, nil
}

// Render formats the result.
func (r *Fig17Result) Render() string {
	var b strings.Builder
	t := r.Tally
	fmt.Fprintf(&b, "Fig 17 | overall assessment of %d servers (paper: 989 credible / 642 uncertain / 638 false of 2269):\n", t.Total())
	fmt.Fprintf(&b, "  credible %d (%.0f%%)  uncertain %d (%.0f%%)  false %d (%.0f%%)\n",
		t.Credible, pct(t.Credible, t.Total()), t.Uncertain, pct(t.Uncertain, t.Total()), t.False, pct(t.False, t.Total()))
	fmt.Fprintf(&b, "  false & off-continent: %d (paper: 401 of 638)  uncertain but continent-credible: %d (paper: 462 of 642)\n",
		t.FalseOffContinent, t.UncertainSameCont)
	fmt.Fprintf(&b, "  reclassified: %d by data centers, %d by AS//24 groups (paper: 353 total)\n",
		r.ReclassifiedByDC, r.ReclassifiedByGroup)
	fmt.Fprintf(&b, "  never measured (pipeline failures): %d measurement, %d localization — the rest of the uncertain verdicts were measured but ambiguous\n",
		r.MeasureFailures, r.LocateFailures)
	fmt.Fprintf(&b, "  top claimed countries:  %s\n", renderBars(r.TopClaimed, 10))
	fmt.Fprintf(&b, "  top probable countries: %s\n", renderBars(r.TopProbable, 10))
	return b.String()
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func renderBars(bars []assess.CountryBar, n int) string {
	if n > len(bars) {
		n = len(bars)
	}
	parts := make([]string, 0, n)
	for _, bar := range bars[:n] {
		parts = append(parts, fmt.Sprintf("%s:%d", bar.Country, bar.Count))
	}
	return strings.Join(parts, " ")
}

// Fig18Result is the provider×country honesty matrix.
type Fig18Result struct {
	Cells []assess.HonestyCell
}

// Fig18HonestyByCountry computes the Figure 18/19 cells.
func (l *Lab) Fig18HonestyByCountry() (*Fig18Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &Fig18Result{Cells: assess.HonestyMatrix(run.Results)}, nil
}

// Render shows the most-claimed countries' columns per provider.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18/19 | honesty by provider and country (backed claims / claims; paper: credible claims concentrate in common hosting countries):\n")
	byProv := map[string][]assess.HonestyCell{}
	for _, c := range r.Cells {
		byProv[c.Provider] = append(byProv[c.Provider], c)
	}
	provs := make([]string, 0, len(byProv))
	for p := range byProv {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		cells := byProv[p]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Claimed > cells[j].Claimed })
		var agg, claimed int
		for _, c := range cells {
			agg += c.Backed
			claimed += c.Claimed
		}
		n := 6
		if n > len(cells) {
			n = len(cells)
		}
		parts := make([]string, 0, n)
		for _, c := range cells[:n] {
			parts = append(parts, fmt.Sprintf("%s %d/%d", c.Country, c.Backed, c.Claimed))
		}
		fmt.Fprintf(&b, "  %s: overall %3.0f%%  top: %s\n", p, 100*float64(agg)/float64(claimed), strings.Join(parts, ", "))
	}
	return b.String()
}

// Fig20Result checks whether region size correlates with landmark
// proximity within one data-center group.
type Fig20Result struct {
	GroupKey    string
	Servers     int
	Corr        float64 // paper: no correlation
	MeanAreaKm2 float64
}

// Fig20RegionSizeVsLandmark analyzes the largest AS//24 group, as the
// paper does for AS63128.
func (l *Lab) Fig20RegionSizeVsLandmark() (*Fig20Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	var bestKey string
	var bestGroup []*proxy.Server
	for key, group := range l.Fleet.DataCenterGroups() {
		if len(group) > len(bestGroup) {
			bestKey, bestGroup = key, group
		}
	}
	if len(bestGroup) < 3 {
		return nil, fmt.Errorf("experiments: no sizable group")
	}
	var areas, dists []float64
	for _, s := range bestGroup {
		r, ok := run.byServer[string(s.Host.ID)]
		if !ok || r.Region == nil || r.Region.Empty() {
			continue
		}
		c, ok2 := r.Region.Centroid()
		if !ok2 {
			continue
		}
		// Distance from the region centroid to the nearest landmark.
		nearest := nearestLandmarkKm(l, c)
		areas = append(areas, r.Region.AreaKm2())
		dists = append(dists, nearest)
	}
	if len(areas) < 3 {
		return nil, fmt.Errorf("experiments: group has too few usable regions")
	}
	return &Fig20Result{
		GroupKey:    bestKey,
		Servers:     len(areas),
		Corr:        pearson(dists, areas),
		MeanAreaKm2: mathx.Mean(areas),
	}, nil
}

func nearestLandmarkKm(l *Lab, p geo.Point) float64 {
	best := geo.HalfEquatorKm
	for _, lm := range l.Cons.All() {
		if d := geo.DistanceKm(lm.Host.Loc, p); d < best {
			best = d
		}
	}
	return best
}

// Render formats the result.
func (r *Fig20Result) Render() string {
	return fmt.Sprintf(
		"Fig 20 | group %s (%d servers): corr(region size, nearest-landmark distance) = %.3f (paper: no correlation), mean area %.0f km²",
		r.GroupKey, r.Servers, r.Corr, r.MeanAreaKm2)
}

// Fig21Row is one provider column of the comparison matrix.
type Fig21Row struct {
	Provider        string
	CBGppGenerous   float64
	CBGppStrict     float64
	ICLab           float64
	Databases       map[string]float64
	ProviderHonesty float64 // ground truth, for reference (not in the paper)
}

// Fig21Comparison computes the agreement matrix: CBG++ two ways, the
// ICLab checker, and the five IP-to-location databases.
func (l *Lab) Fig21Comparison() ([]Fig21Row, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	agreement := assess.Agreement(run.Results)
	agreeByProv := map[string]assess.ProviderAgreement{}
	for _, a := range agreement {
		agreeByProv[a.Provider] = a
	}

	checker := &iclab.Checker{}
	var rows []Fig21Row
	span := l.Telemetry.StartStage("fig21.iclab")
	for _, p := range l.Fleet.Providers {
		row := Fig21Row{Provider: p.Name, Databases: map[string]float64{}, ProviderHonesty: p.Honesty}
		if a, ok := agreeByProv[p.Name]; ok {
			row.CBGppGenerous = a.Generous
			row.CBGppStrict = a.Strict
		}
		// ICLab: re-measure through each proxy (the checker consumes raw
		// indirect measurements; its speed limit absorbs the extra leg).
		// The re-measurement runs through the deterministic batch: each
		// proxy's stream depends only on (seed, proxy ID), not on its
		// position in the provider's roster.
		proxies := make([]netsim.HostID, len(p.Servers))
		for i, s := range p.Servers {
			proxies[i] = s.Host.ID
		}
		batch := &measure.Batch{
			Cons:        l.Cons,
			Client:      l.Client,
			Eta:         measure.DefaultEta,
			Concurrency: l.Concurrency(),
			Seed:        l.streamSeed(21),
		}
		accepted, checked := 0, 0
		for i, br := range batch.Run(context.Background(), proxies) {
			if br.Err != nil {
				continue
			}
			v, err := checker.Check(p.Servers[i].ClaimedCountry, br.Result.Measurements())
			if err != nil {
				continue
			}
			checked++
			if v.Accepted {
				accepted++
			}
		}
		if checked > 0 {
			row.ICLab = float64(accepted) / float64(checked)
		}
		for _, db := range ipdb.Databases() {
			row.Databases[db.Name] = db.AgreementRate(p.Servers)
		}
		rows = append(rows, row)
	}
	span.End()
	return rows, nil
}

// RenderFig21 formats the matrix.
func RenderFig21(rows []Fig21Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 21 | %% of claims each method agrees with (paper: databases agree far more than active geolocation):\n")
	fmt.Fprintf(&b, "  %-22s", "method")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s", r.Provider)
	}
	fmt.Fprintln(&b)
	printRow := func(name string, get func(Fig21Row) float64) {
		fmt.Fprintf(&b, "  %-22s", name)
		for _, r := range rows {
			fmt.Fprintf(&b, " %2.0f", 100*get(r))
		}
		fmt.Fprintln(&b)
	}
	printRow("CBG++ (generous)", func(r Fig21Row) float64 { return r.CBGppGenerous })
	printRow("CBG++ (strict)", func(r Fig21Row) float64 { return r.CBGppStrict })
	printRow("ICLab", func(r Fig21Row) float64 { return r.ICLab })
	for _, db := range ipdb.Databases() {
		name := db.Name
		printRow(name, func(r Fig21Row) float64 { return r.Databases[name] })
	}
	printRow("(ground-truth honesty)", func(r Fig21Row) float64 { return r.ProviderHonesty })
	return b.String()
}

// ConfusionResult holds both confusion matrices.
type ConfusionResult struct {
	Continents map[[2]string]int
	Countries  map[[2]string]int
}

// Fig22_23Confusion computes the Figures 22–23 matrices over the audit's
// uncertain predictions.
func (l *Lab) Fig22_23Confusion() (*ConfusionResult, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &ConfusionResult{
		Continents: assess.ConfusionMatrix(run.Results, assess.ContinentKey),
		Countries:  assess.ConfusionMatrix(run.Results, func(c string) string { return c }),
	}, nil
}

// Render summarizes the continent matrix (the country matrix has
// thousands of cells; the renderer shows its strongest confusions).
func (r *ConfusionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 22 | continent confusion (diagonal = regions within one continent):\n")
	conts := worldmap.AllContinents()
	fmt.Fprintf(&b, "  %-16s", "")
	for _, c := range conts {
		fmt.Fprintf(&b, " %6.6s", c.String())
	}
	fmt.Fprintln(&b)
	for _, a := range conts {
		fmt.Fprintf(&b, "  %-16s", a.String())
		for _, c := range conts {
			fmt.Fprintf(&b, " %6d", r.Continents[[2]string{a.String(), c.String()}])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "Fig 23 | strongest cross-country confusions:\n")
	type pairCount struct {
		pair  [2]string
		count int
	}
	var pairs []pairCount
	for p, n := range r.Countries {
		if p[0] < p[1] { // each unordered pair once, off-diagonal only
			pairs = append(pairs, pairCount{p, n})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].pair[0]+pairs[i].pair[1] < pairs[j].pair[0]+pairs[j].pair[1]
	})
	n := 12
	if n > len(pairs) {
		n = len(pairs)
	}
	for _, pc := range pairs[:n] {
		fmt.Fprintf(&b, "  %s ↔ %s: %d\n", pc.pair[0], pc.pair[1], pc.count)
	}
	return b.String()
}

// DisambiguationResult quantifies Figures 15–16 at fleet scale.
type DisambiguationResult struct {
	UncertainBefore int
	ByDataCenters   int
	ByGroups        int
}

// Fig16Disambiguation reports how many uncertain verdicts the two
// refinements resolved (paper: 353 of the uncertain cases).
func (l *Lab) Fig16Disambiguation() (*DisambiguationResult, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	before := 0
	for _, r := range run.Results {
		if r.VerdictRaw == assess.Uncertain {
			before++
		}
	}
	return &DisambiguationResult{
		UncertainBefore: before,
		ByDataCenters:   run.ReclassifiedByDC,
		ByGroups:        run.ReclassifiedByGroup,
	}, nil
}

// Render formats the result.
func (r *DisambiguationResult) Render() string {
	return fmt.Sprintf(
		"Fig 15/16 | of %d uncertain predictions, %d resolved by data-center locations and %d by AS//24 metadata (paper: 353 total)",
		r.UncertainBefore, r.ByDataCenters, r.ByGroups)
}
