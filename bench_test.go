package activegeo

// Benchmarks: one per table/figure of the paper's evaluation, plus
// ablations of the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The figure benches exercise the exact generator the cmd/experiments
// binary uses, at a reduced scale; custom metrics report the headline
// quantity each figure is about, so the "shape" (who wins, by how much)
// is visible straight from the bench output.

import (
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/experiments"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/refimpl"
)

var (
	benchOnce sync.Once
	benchLab  *Lab
	benchErr  error
)

func benchConfig() LabConfig {
	return LabConfig{
		Seed:       2018,
		Anchors:    60,
		Probes:     60,
		GridResDeg: 2.0,
		FleetTotal: 160,
		Volunteers: 8,
		MTurkers:   24,
	}
}

func getLab(b *testing.B) *Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = NewLab(benchConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

func BenchmarkFig2Calibration(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig2Calibration()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BestlineSpeed, "bestline-km/ms")
	}
}

func BenchmarkFig4ToolValidation(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig4ToolValidation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SlopeRatio, "slope-ratio")
	}
}

func BenchmarkFig5WindowsBrowsers(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig5Windows()
		if err != nil {
			b.Fatal(err)
		}
		outliers := 0
		for _, r := range rows {
			outliers += r.HighOutliers
		}
		b.ReportMetric(float64(outliers), "high-outliers")
	}
}

func BenchmarkFig9AlgorithmComparison(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig9AlgorithmComparison()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "CBG" {
				b.ReportMetric(r.Coverage, "cbg-coverage")
			}
		}
	}
}

func BenchmarkFig10EstimateRatios(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig10EstimateRatios()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.BestlineUnderFrac, "bestline-under-%")
	}
}

func BenchmarkFig11LandmarkEffectiveness(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig11LandmarkEffectiveness(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DistanceReductionCorr, "dist-reduction-corr")
	}
}

func BenchmarkCBGppCoverage(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.CBGppCoverage()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.CBGppMisses), "cbgpp-misses")
		b.ReportMetric(float64(r.CBGMisses), "cbg-misses")
	}
}

func BenchmarkFig13Eta(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig13Eta()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Eta, "eta")
	}
}

func BenchmarkFig14ProviderClaims(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lab.Fig14Market()
		b.ReportMetric(float64(len(r.Entries)), "providers")
	}
}

func BenchmarkFig16Disambiguation(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig16Disambiguation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ByDataCenters+r.ByGroups), "resolved")
	}
}

func BenchmarkFig17Assessment(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.ResetAudit() // time the full pipeline, not the memo
		r, err := lab.Fig17Assessment()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(r.Tally.False)/float64(r.Tally.Total()), "false-%")
	}
}

// BenchmarkAuditPipeline times the full §6 audit serially and with the
// default worker pool. The verdicts are identical in both cases (and at
// any other width): only wall-clock time varies with the worker count.
func BenchmarkAuditPipeline(b *testing.B) {
	lab := getLab(b)
	origin := lab.Cfg.Concurrency
	defer func() { lab.Cfg.Concurrency = origin }()
	for _, variant := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(variant.name, func(b *testing.B) {
			lab.Cfg.Concurrency = variant.workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lab.ResetAudit()
				run, err := lab.Audit()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(run.Results)), "servers")
			}
		})
	}
}

func BenchmarkFig18HonestyByCountry(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig18HonestyByCountry()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Cells)), "cells")
	}
}

func BenchmarkFig19ProviderMaps(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig18HonestyByCountry()
		if err != nil {
			b.Fatal(err)
		}
		if r.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig20RegionSizeVsLandmark(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig20RegionSizeVsLandmark()
		if err != nil {
			b.Skip(err)
		}
		b.ReportMetric(r.Corr, "corr")
	}
}

func BenchmarkFig21Comparison(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Fig21Comparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "providers")
	}
}

func BenchmarkFig22ContinentConfusion(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig22_23Confusion()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Continents)), "cells")
	}
}

func BenchmarkFig23CountryConfusion(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig22_23Confusion()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Countries)), "cells")
	}
}

// --- Ablations -----------------------------------------------------------

// benchCrowdMeasurements captures one crowd host's measurement vector.
func benchCrowdMeasurements(b *testing.B, lab *Lab) []Measurement {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	h := lab.Crowd[0]
	samples := h.MeasureAllAnchors(lab.Cons, rng)
	return Measurements(samples)
}

// BenchmarkAblationSlowline compares CBG++ with and without the slowline
// clamp (speed floor of 84.5 km/ms).
func BenchmarkAblationSlowline(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	for _, variant := range []struct {
		name string
		opts cbgpp.Options
	}{
		{"with-slowline", cbgpp.Options{}},
		{"no-slowline", cbgpp.Options{DisableSlowline: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cal, err := cbgpp.Calibrate(lab.Cons, variant.opts)
			if err != nil {
				b.Fatal(err)
			}
			alg := cbgpp.New(lab.Env, cal, variant.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				region, err := alg.Locate(ms)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(region.AreaKm2()/1e6, "area-Mm2")
			}
		})
	}
}

// BenchmarkAblationBaselineFilter compares CBG++ with and without
// baseline-region disk filtering.
func BenchmarkAblationBaselineFilter(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	for _, variant := range []struct {
		name string
		opts cbgpp.Options
	}{
		{"with-filter", cbgpp.Options{}},
		{"no-filter", cbgpp.Options{DisableBaselineFilter: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cal, err := cbgpp.Calibrate(lab.Cons, variant.opts)
			if err != nil {
				b.Fatal(err)
			}
			alg := cbgpp.New(lab.Env, cal, variant.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Locate(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTwoPhase compares the two-phase measurement (3
// anchors/continent + 25 same-continent landmarks) against measuring
// every anchor.
func BenchmarkAblationTwoPhase(b *testing.B) {
	lab := getLab(b)
	h := lab.Crowd[1]
	b.Run("two-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			res, err := h.MeasureTwoPhase(lab.Cons, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Samples())), "measurements")
		}
	})
	b.Run("all-anchors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			samples := h.MeasureAllAnchors(lab.Cons, rng)
			b.ReportMetric(float64(len(samples)), "measurements")
		}
	})
}

// BenchmarkAblationGridResolution shows the precision/cost tradeoff of
// the region grid.
func BenchmarkAblationGridResolution(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	for _, res := range []float64{3.0, 2.0, 1.0} {
		b.Run(resName(res), func(b *testing.B) {
			env := geoloc.NewEnv(res)
			cal, err := cbgpp.Calibrate(lab.Cons, cbgpp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			alg := cbgpp.New(env, cal, cbgpp.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				region, err := alg.Locate(ms)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(region.AreaKm2()/1e6, "area-Mm2")
			}
		})
	}
}

func resName(res float64) string {
	switch res {
	case 3.0:
		return "3.0deg"
	case 2.0:
		return "2.0deg"
	default:
		return "1.0deg"
	}
}

// BenchmarkAblationEtaSubtraction compares locating a proxy with and
// without the §5.3 client-leg subtraction.
func BenchmarkAblationEtaSubtraction(b *testing.B) {
	lab := getLab(b)
	s := lab.Fleet.Servers()[0]
	rng := rand.New(rand.NewSource(88))
	pt := &ProxiedTool{Net: lab.Net, Client: lab.Client, Proxy: s.Host.ID}
	self, err := pt.SelfPing(rng)
	if err != nil {
		b.Fatal(err)
	}
	var raw []Sample
	for _, lm := range lab.Cons.Anchors()[:30] {
		smp, err := pt.Measure("", lm, rng)
		if err != nil {
			continue
		}
		raw = append(raw, smp)
	}
	truth := s.Host.Loc
	for _, variant := range []struct {
		name string
		eta  float64
	}{
		{"with-eta", DefaultEta},
		{"naive", 0.000001}, // effectively no subtraction
	} {
		b.Run(variant.name, func(b *testing.B) {
			corrected := measure.CorrectForProxy(raw, self, variant.eta)
			ms := Measurements(corrected)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				region, err := lab.CBGpp.Locate(ms)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(region.DistanceToPointKm(truth), "miss-km")
				b.ReportMetric(region.AreaKm2()/1e6, "area-Mm2")
			}
		})
	}
}

// BenchmarkExtRefinement times the §8.1 iterative refinement loop.
func BenchmarkExtRefinement(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.ExtRefinement(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanAreaAfter/1e6, "area-after-Mm2")
	}
}

// BenchmarkExtCoLocation times the proxy-mesh co-location pilot.
func BenchmarkExtCoLocation(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.ExtCoLocation("A", 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Groups), "groups")
	}
}

// BenchmarkExtAdversary times the §8 decoy attack analysis.
func BenchmarkExtAdversary(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.ExtAdversary()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ForgedCBGppToDecoyKm, "decoy-miss-km")
	}
}

// BenchmarkExtConstellations times the §8.1 cross-constellation
// overestimation study.
func BenchmarkExtConstellations(b *testing.B) {
	lab := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.ExtConstellations()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WithinMedianRatio, "within-ratio")
	}
}

// BenchmarkLocateCBG times a single plain-CBG localization.
func BenchmarkLocateCBG(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	cal, err := cbg.Calibrate(lab.Cons, cbg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	alg := cbg.New(lab.Env, cal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Locate(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLocate times one algorithm's Locate on a fixed measurement
// vector, with a warmup call outside the timer so the kernel side is
// measured in its steady state (landmark distance fields cached) — the
// state every audit target after the first runs in.
func benchLocate(b *testing.B, alg geoloc.Algorithm, ms []Measurement) {
	b.Helper()
	region, err := alg.Locate(ms)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(region.Count()), "region-cells")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Locate(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpotterLocate times the kernel-backed Spotter (cached
// distance fields, hoisted model evaluation, plausibility prune).
// Compare against BenchmarkSpotterLocateReference for the pre-kernel
// baseline; BenchmarkLocateKernel and BenchmarkLocateReference time the
// other four algorithms the same way.
func BenchmarkSpotterLocate(b *testing.B) {
	lab := getLab(b)
	benchLocate(b, lab.Spotter, benchCrowdMeasurements(b, lab))
}

// BenchmarkSpotterLocateReference times the pre-kernel Spotter: a full
// land scan with per-cell haversine and per-cell model evaluation.
func BenchmarkSpotterLocateReference(b *testing.B) {
	lab := getLab(b)
	ref := &refimpl.Spotter{Env: lab.Env, Model: lab.Spotter.Model()}
	benchLocate(b, ref, benchCrowdMeasurements(b, lab))
}

// BenchmarkLocateKernel times every kernel-backed algorithm on the same
// measurement vector; the Reference variants below are the pre-kernel
// baselines.
func BenchmarkLocateKernel(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	for _, alg := range []geoloc.Algorithm{lab.CBG, lab.CBGpp, lab.Octant, lab.Hybrid} {
		b.Run(alg.Name(), func(b *testing.B) { benchLocate(b, alg, ms) })
	}
}

// BenchmarkLocateReference times the pre-kernel implementations of the
// same algorithms (per-cell haversine, no distance-field cache).
func BenchmarkLocateReference(b *testing.B) {
	lab := getLab(b)
	ms := benchCrowdMeasurements(b, lab)
	for _, alg := range []geoloc.Algorithm{
		&refimpl.CBG{Env: lab.Env, Cal: lab.CBG.Calibration()},
		&refimpl.CBGPP{Env: lab.Env, Cal: lab.CBGpp.Calibration()},
		&refimpl.Octant{Env: lab.Env, Cal: lab.Octant.Calibration()},
		&refimpl.Hybrid{Env: lab.Env, Model: lab.Spotter.Model()},
	} {
		b.Run(alg.Name(), func(b *testing.B) { benchLocate(b, alg, ms) })
	}
}

var _ = experiments.PaperConfig // keep the experiments import for documentation cross-reference
