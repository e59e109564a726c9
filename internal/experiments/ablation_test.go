package experiments

import (
	"math/rand"
	"testing"

	"activegeo/internal/cbgpp"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/mathx"
	"activegeo/internal/measure"
)

// TestEtaSubtractionShrinksProxyRegions holds the §5.3 client-leg
// subtraction A = B − ηC against the naive use of proxied RTTs. Each of
// the quick fleet's first 60 servers is measured through the proxy to
// 30 anchors and located by CBG++ twice: from the raw samples, and from
// the samples measure.CorrectForProxy corrected with the self-ping.
// Every raw RTT still carries the client↔proxy leg, so every naive disk
// is too wide: the naive region must be at least 6× the corrected one
// (the smallest ratio is 6.2×, the median 44×). Both regions must
// contain the server. For the corrected region that holds on this draw
// (each server's stream seeded with 88), not on every draw: a self-ping
// inflated by a queueing spike makes ηC subtract more than the client
// leg, and the disks can then exclude the server.
func TestEtaSubtractionShrinksProxyRegions(t *testing.T) {
	const minRatio = 6
	l := lab(t)
	anchors := l.Cons.Anchors()[:30]
	for _, s := range l.Fleet.Servers()[:60] {
		rng := rand.New(rand.NewSource(88))
		pt := &measure.ProxiedTool{Net: l.Net, Client: l.Client, Proxy: s.Host.ID}
		self, err := pt.SelfPing(rng)
		if err != nil {
			t.Fatalf("%s: self-ping: %v", s.Host.ID, err)
		}
		var raw []measure.Sample
		for _, lm := range anchors {
			if smp, err := pt.Measure("", lm, rng); err == nil {
				raw = append(raw, smp)
			}
		}
		naive := locate(t, l.CBGpp, measure.Measurements(raw))
		corrected := locate(t, l.CBGpp, measure.Measurements(measure.CorrectForProxy(raw, self, measure.DefaultEta)))
		for _, r := range []struct {
			name   string
			region *grid.Region
		}{{"naive", naive}, {"η-corrected", corrected}} {
			if !r.region.ContainsPoint(s.Host.Loc) {
				t.Errorf("%s: %s region misses the server by %.0f km", s.Host.ID, r.name, r.region.DistanceToPointKm(s.Host.Loc))
			}
		}
		if naive.AreaKm2() < minRatio*corrected.AreaKm2() {
			t.Errorf("%s: naive region %.2f Mm² is under %d× the η-corrected %.2f Mm²",
				s.Host.ID, naive.AreaKm2()/1e6, minRatio, corrected.AreaKm2()/1e6)
		}
	}
}

// TestGridResolutionShrinksRegions holds the precision side of the grid
// resolution trade-off. Each quick-lab crowd host is measured against
// every anchor and located by CBG++ on 3°, 2° and 1° grids. Its 1°
// region must be no larger than its 3° one, and the median area must
// fall at each step (12.41, 10.68 and 9.72 Mm²). Per host the 2° step
// is not monotone: a finer grid can keep a boundary cell that a coarser
// one drops, and host 31 grows from 24.43 to 24.52 Mm² between 2° and
// 1°.
func TestGridResolutionShrinksRegions(t *testing.T) {
	l := lab(t)
	resolutions := []float64{3, 2, 1}
	algs := make([]*cbgpp.CBGPP, len(resolutions))
	for j, res := range resolutions {
		algs[j] = cbgpp.New(geoloc.NewEnv(res), l.CBGpp.Calibration(), cbgpp.Options{})
	}
	areas := make([][]float64, len(resolutions))
	for i, h := range l.Crowd {
		ms := measure.Measurements(h.MeasureAllAnchors(l.Cons, rand.New(rand.NewSource(int64(77+i)))))
		for j, alg := range algs {
			areas[j] = append(areas[j], locate(t, alg, ms).AreaKm2()/1e6)
		}
		if coarse, fine := areas[0][i], areas[2][i]; coarse < fine {
			t.Errorf("crowd host %d: 3° region %.2f Mm² is smaller than its 1° region %.2f Mm²", i, coarse, fine)
		}
	}
	medians := make([]float64, len(resolutions))
	for j := range resolutions {
		medians[j] = mathx.Median(areas[j])
	}
	if !(medians[0] > medians[1] && medians[1] > medians[2]) {
		t.Errorf("median areas %.2f / %.2f / %.2f Mm² at 3° / 2° / 1° do not fall", medians[0], medians[1], medians[2])
	}
}

func locate(t *testing.T, alg geoloc.Algorithm, ms []geoloc.Measurement) *grid.Region {
	t.Helper()
	region, err := alg.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	return region
}

// BenchmarkAudit times the whole quick-fleet audit (the audit-quick
// configuration) serially and on GOMAXPROCS workers. The verdicts are
// identical at any width; only wall-clock time varies. It is the
// whole-audit CPU-profile target:
//
//	go test -run '^$' -bench '^BenchmarkAudit' -cpuprofile cpu.out ./internal/experiments
func BenchmarkAudit(b *testing.B) {
	l := lab(b)
	origin := l.Cfg.Concurrency
	defer func() { l.Cfg.Concurrency = origin }()
	for _, variant := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(variant.name, func(b *testing.B) {
			l.Cfg.Concurrency = variant.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.ResetAudit()
				if _, err := l.Audit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
