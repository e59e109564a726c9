package spotter

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/mathx"
)

func synthSamples(n int, seed int64) []mathx.XY {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mathx.XY, n)
	for i := range pts {
		d := rng.Float64() * 15000
		oneWay := d/110 + 4 + rng.ExpFloat64()*15
		pts[i] = mathx.XY{X: d, Y: 2 * oneWay}
	}
	return pts
}

func TestFitModel(t *testing.T) {
	m, err := Fit(synthSamples(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// µ must be increasing over the calibrated range and roughly match
	// the generating speed of 110 km/ms.
	prev := -1.0
	for _, tt := range []float64{10, 30, 60, 100, 140} {
		mu := m.MuKm(tt)
		if mu < prev {
			t.Errorf("µ decreased at %f ms", tt)
		}
		prev = mu
	}
	if mu := m.MuKm(100); mu < 6000 || mu > 13000 {
		t.Errorf("µ(100 ms) = %f km, want ≈10-11k", mu)
	}
	// σ positive and floored.
	for _, tt := range []float64{1, 50, 150, 1000} {
		if m.SigmaKm(tt) < 50 {
			t.Errorf("σ(%f) below floor", tt)
		}
	}
	// Clamped outside the fitted range (no cubic explosion).
	if m.MuKm(1e6) > geo.HalfEquatorKm {
		t.Error("µ not clamped at extreme delay")
	}
	if m.MuKm(0) < 0 {
		t.Error("µ negative at zero delay")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("want error for no samples")
	}
	if _, err := Fit(synthSamples(10, 2)); err == nil {
		t.Error("want error for too few samples")
	}
}

func TestLocateProducesMassRegion(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, model)
	if alg.Name() != "Spotter" {
		t.Error("name")
	}
	if alg.Model() != model {
		t.Error("model accessor")
	}
	rng := rand.New(rand.NewSource(41))
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := algtest.MeasureTarget(t, cons, "spot-berlin", berlin, 25, rng)
	region, err := alg.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if region.Empty() {
		t.Fatal("empty Spotter region")
	}
	// The posterior mode should be in the right part of the world even
	// if (as the paper found) the 95% region can be off.
	c, _ := region.Centroid()
	if d := geo.DistanceKm(c, berlin); d > 6000 {
		t.Errorf("Spotter centroid %.0f km from truth", d)
	}
	// Region is land-only by construction.
	region.Each(func(i int) {
		if env.Mask.CountryOfCell(i) == "" {
			t.Fatalf("Spotter region contains water cell %d", i)
		}
	})
}

func TestLocateNoMeasurements(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(env, model).Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
}

func TestSmallerSigmaGivesSmallerRegion(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	ms := algtest.MeasureTarget(t, cons, "spot-chicago", geo.Point{Lat: 41.88, Lon: -87.63}, 25, rng)

	wide, err := New(env, model).Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	// A model with tighter σ must not produce a larger region.
	tight := &Model{Mu: model.Mu, Sigma: model.Sigma, minT: model.minT, maxT: model.maxT}
	tight.Sigma.C[0] -= 0.5 * model.SigmaKm(50)
	tr, err := New(env, tight).Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if tr.AreaKm2() > wide.AreaKm2()*1.5 {
		t.Errorf("tighter σ produced a much larger region: %f vs %f", tr.AreaKm2(), wide.AreaKm2())
	}
}
