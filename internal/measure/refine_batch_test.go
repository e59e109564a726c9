package measure

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"activegeo/internal/algtest"
	"activegeo/internal/cbg"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

func refinerFixture(t *testing.T) (*Refiner, netsim.HostID, geo.Point) {
	t.Helper()
	cons, env := algtest.Fixture(t)
	cal, err := cbg.Calibrate(cons, cbg.Options{Slowline: true})
	if err != nil {
		t.Fatal(err)
	}
	alg := cbgpp.New(env, cal, cbgpp.Options{})
	loc := geo.Point{Lat: 48.86, Lon: 2.35} // Paris
	from := addTarget(t, cons.Net(), "refine-paris", loc)
	return &Refiner{
		Cons:   cons,
		Tool:   &CLITool{Net: cons.Net()},
		Locate: func(ms []geoloc.Measurement) (*grid.Region, error) { return alg.Locate(ms) },
	}, from, loc
}

func TestRefinerShrinksRegion(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	r, from, loc := refinerFixture(t)
	rng := rand.New(rand.NewSource(42))

	// Start from a deliberately sparse initial set: phase-1-style
	// far-flung anchors only.
	tp := &TwoPhase{Cons: cons, Tool: r.Tool, SecondPhase: 5}
	initial, err := tp.Run(from, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(from, initial.Measurements(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AreaHistory) < 2 {
		t.Fatalf("no refinement rounds ran: history %v", res.AreaHistory)
	}
	first, last := res.AreaHistory[0], res.AreaHistory[len(res.AreaHistory)-1]
	if last > first {
		t.Errorf("refinement grew the region: %.0f → %.0f", first, last)
	}
	if last < first*0.9 {
		t.Logf("refinement shrank region %.0f → %.0f km² in %d rounds", first, last, res.Rounds)
	}
	// Refined region must still cover the truth (it is CBG++-based).
	if d := res.Region.DistanceToPointKm(loc); d > 300 {
		t.Errorf("refined region misses truth by %.0f km", d)
	}
}

func TestRefinerTargetArea(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	r, from, _ := refinerFixture(t)
	r.TargetAreaKm2 = 1e12 // absurdly generous: met immediately
	rng := rand.New(rand.NewSource(43))
	tp := &TwoPhase{Cons: cons, Tool: r.Tool}
	initial, err := tp.Run(from, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(from, initial.Measurements(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("target met at start but %d rounds ran", res.Rounds)
	}
}

func TestRefinerNoInitialRegion(t *testing.T) {
	r, from, _ := refinerFixture(t)
	r.Locate = func(ms []geoloc.Measurement) (*grid.Region, error) {
		return nil, geoloc.ErrNoMeasurements
	}
	if _, err := r.Run(from, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want error when localization fails")
	}
}

func TestBatchDeterministicAndOrdered(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "batch-client", geo.Point{Lat: 50.11, Lon: 8.68})
	var proxies []netsim.HostID
	for i, city := range []geo.Point{
		{Lat: 52.37, Lon: 4.89}, {Lat: 48.86, Lon: 2.35}, {Lat: 40.71, Lon: -74.01},
		{Lat: 35.68, Lon: 139.65}, {Lat: 51.51, Lon: -0.13},
	} {
		id := addTarget(t, cons.Net(), "batch-proxy-"+string(rune('a'+i)), city)
		proxies = append(proxies, id)
	}
	b := &Batch{Cons: cons, Client: client, Seed: 99, Concurrency: 3}
	ctx := context.Background()
	r1 := b.Run(ctx, proxies)
	r2 := b.Run(ctx, proxies)
	if len(r1) != len(proxies) {
		t.Fatalf("results = %d", len(r1))
	}
	for i := range r1 {
		if r1[i].Proxy != proxies[i] {
			t.Fatalf("result %d out of order", i)
		}
		if r1[i].Err != nil {
			t.Fatalf("proxy %s failed: %v", r1[i].Proxy, r1[i].Err)
		}
		// Determinism across runs regardless of goroutine scheduling.
		m1, m2 := r1[i].Result.Measurements(), r2[i].Result.Measurements()
		if len(m1) != len(m2) {
			t.Fatalf("proxy %s: %d vs %d measurements across runs", r1[i].Proxy, len(m1), len(m2))
		}
		for j := range m1 {
			if m1[j] != m2[j] {
				t.Fatalf("proxy %s: measurement %d differs across runs", r1[i].Proxy, j)
			}
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "batch-cancel-client", geo.Point{Lat: 50.11, Lon: 8.68})
	var proxies []netsim.HostID
	for i := 0; i < 20; i++ {
		id := addTarget(t, cons.Net(), "batch-cancel-"+string(rune('a'+i)), geo.Point{Lat: 50, Lon: float64(i)})
		proxies = append(proxies, id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before starting: every proxy must report ctx.Err()
	b := &Batch{Cons: cons, Client: client, Seed: 1, Concurrency: 2}
	results := b.Run(ctx, proxies)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("proxy %d (%s): err = %v, want context.Canceled", i, r.Proxy, r.Err)
		}
	}
	_ = time.Now()
}

func TestBatchCancellationMidBatchIsCleanCutoff(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "batch-midcancel-client", geo.Point{Lat: 50.11, Lon: 8.68})
	var proxies []netsim.HostID
	for i := 0; i < 24; i++ {
		id := addTarget(t, cons.Net(), "batch-midcancel-"+string(rune('a'+i)), geo.Point{Lat: 48, Lon: float64(i)})
		proxies = append(proxies, id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &Batch{Cons: cons, Client: client, Seed: 7, Concurrency: 2}
	b.OnProgress = func(done, total int) {
		if done == 2 {
			cancel() // cancel while most of the batch is still pending
		}
	}
	results := b.Run(ctx, proxies)
	// Cancellation must be a clean cutoff: once any proxy reports
	// ctx.Err() at dispatch, every later proxy must too — no proxy after
	// the cutoff may have been measured.
	firstCancelled := -1
	for i, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			firstCancelled = i
			break
		}
	}
	if firstCancelled == -1 {
		t.Fatal("no proxy observed the mid-batch cancellation")
	}
	for i := firstCancelled; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("proxy %d (%s) was dispatched after the cancellation cutoff: err = %v",
				i, results[i].Proxy, results[i].Err)
		}
	}
}
