// Micro-benchmarks of each layer's hot entry point on the quick lab, with
// allocations reported. From the repository root:
//
//	go -C bench test -run '^$' -bench . -benchmem

package main

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// layerFixture is the quick lab with the two-phase vectors, probed pairs
// and CBG++ regions of its first 48 servers, built once for every
// benchmark.
type layerFixture struct {
	lab     *experiments.Lab
	ids     []netsim.HostID
	vecs    [][]geoloc.Measurement
	pairs   [][2]netsim.HostID
	regions []*grid.Region
}

var (
	fixtureOnce sync.Once
	fixture     *layerFixture
	fixtureErr  error
)

func quickFixture(b *testing.B) *layerFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		lab, err := experiments.NewLab(experiments.QuickConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		f := &layerFixture{lab: lab}
		for _, s := range lab.Fleet.Servers()[:48] {
			f.ids = append(f.ids, s.Host.ID)
		}
		f.vecs, f.pairs = probeMeasure(metricSet{}, lab, f.ids)
		for _, v := range f.vecs {
			r, err := lab.CBGpp.Locate(v)
			if err != nil {
				fixtureErr = err
				return
			}
			f.regions = append(f.regions, r)
		}
		fixture = f
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkFloat   float64
	sinkResult  *measure.Result
	sinkRegion  *grid.Region
	sinkAssess  *assess.Result
	sinkInspect detect.Inspection
)

func BenchmarkSampleRTT(b *testing.B) {
	f := quickFixture(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		v, err := f.lab.Net.SampleRTTMs(p[0], p[1], rng)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = v
	}
}

func BenchmarkProxiedTwoPhase(b *testing.B) {
	f := quickFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := f.ids[i%len(f.ids)]
		rng := rand.New(rand.NewSource(measure.StreamSeed(f.lab.Cfg.Seed, id)))
		res, err := measure.ProxiedTwoPhase(f.lab.Cons, f.lab.Client, id, measure.DefaultEta, rng)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}

func BenchmarkCBGppLocate(b *testing.B) {
	f := quickFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := f.lab.CBGpp.Locate(f.vecs[i%len(f.vecs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkRegion = r
	}
}

func BenchmarkAssess(b *testing.B) {
	f := quickFixture(b)
	servers := f.lab.Fleet.Servers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(f.regions)
		s := servers[j]
		sinkAssess = assess.Assess(f.lab.Env.Mask, f.regions[j], string(s.Host.ID), s.Provider, s.ClaimedCountry)
	}
}

func BenchmarkInspectServer(b *testing.B) {
	f := quickFixture(b)
	centroids := make([]geo.Point, len(f.regions))
	for i, r := range f.regions {
		centroids[i], _ = r.Centroid()
	}
	cfg := detect.DefaultInspectConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(f.vecs)
		sinkInspect = detect.InspectServer(f.vecs[j], centroids[j], cfg)
	}
}

// BenchmarkSyncOneDirtyRow is a streaming pass over the whole quick fleet
// in which exactly one server's claim changed: one store row write plus a
// signature skip for every other row.
func BenchmarkSyncOneDirtyRow(b *testing.B) {
	f := quickFixture(b)
	fleet := f.lab.StreamSource()
	src := newClaimSource(fleet, fleet.Len())
	aud := f.lab.StreamingAuditor(64, 2)
	ctx := context.Background()
	if _, err := aud.Sync(ctx, src); err != nil {
		b.Fatal(err)
	}
	claims := [2]string{src.specs[0].Claimed, src.codes[0]}
	if claims[1] == claims[0] {
		claims[1] = src.codes[1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.specs[0].Claimed = claims[(i+1)%2]
		st, err := aud.Sync(ctx, src)
		if err != nil {
			b.Fatal(err)
		}
		if st.Audited != 1 {
			b.Fatalf("pass audited %d servers, want 1", st.Audited)
		}
	}
}
