package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanMedianStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %f, want 5", m)
	}
	if m := Median(xs); math.Abs(m-4.5) > 1e-12 {
		t.Errorf("Median = %f, want 4.5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("StdDev = %f, want ≈2.138", s)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of one sample is 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%f) = %f, want %f", c.q, got, c.want)
		}
	}
	// Quantile must not mutate its input.
	shuffled := []float64{5, 1, 4, 2, 3}
	Quantile(shuffled, 0.5)
	if shuffled[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFTest(t *testing.T) {
	// Full model fits better: F should be positive and p small when the
	// improvement is large relative to residual noise.
	f := FTestNested(100, 10, 48, 46)
	if f <= 0 {
		t.Fatalf("F = %f", f)
	}
	p := FTestPValue(f, 2, 46)
	if !(p > 0 && p < 1e-6) {
		t.Errorf("p = %g, want tiny", p)
	}
	// No improvement: F ≈ 0, p ≈ 1.
	f0 := FTestNested(10.0001, 10, 48, 46)
	p0 := FTestPValue(f0, 2, 46)
	if p0 < 0.9 {
		t.Errorf("null p = %f, want ≈1", p0)
	}
	if !math.IsNaN(FTestNested(10, 10, 46, 46)) {
		t.Error("degenerate df should give NaN")
	}
}

func TestFTestPValueKnown(t *testing.T) {
	// F(1, 10) upper tail at 4.965 ≈ 0.05 (classic table value).
	p := FTestPValue(4.965, 1, 10)
	if math.Abs(p-0.05) > 0.002 {
		t.Errorf("p = %f, want ≈0.05", p)
	}
	// F(5, 20) at 2.71 ≈ 0.05.
	p = FTestPValue(2.71, 5, 20)
	if math.Abs(p-0.05) > 0.003 {
		t.Errorf("p = %f, want ≈0.05", p)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %f,%f", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax(nil) should be NaN, NaN")
	}
}
