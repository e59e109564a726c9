package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLowerHullSquare(t *testing.T) {
	pts := []XY{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.5, 0.5}}
	h := LowerHull(pts)
	want := []XY{{0, 0}, {1, 0}}
	if len(h) != len(want) {
		t.Fatalf("hull = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("hull[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestUpperHullSquare(t *testing.T) {
	pts := []XY{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.5, 0.5}}
	h := UpperHull(pts)
	want := []XY{{0, 1}, {1, 1}}
	if len(h) != len(want) {
		t.Fatalf("hull = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("hull[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestLowerHullBelowAllPoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]XY, 40)
		for i := range pts {
			pts[i] = XY{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		h := LowerHull(pts)
		if len(h) == 0 {
			return false
		}
		pl := &PiecewiseLinear{Knots: h}
		for _, p := range pts {
			if p.X >= h[0].X && p.X <= h[len(h)-1].X && pl.At(p.X) > p.Y+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowerHullIsConvex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]XY, 30)
		for i := range pts {
			pts[i] = XY{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		h := LowerHull(pts)
		for i := 2; i < len(h); i++ {
			if cross(h[i-2], h[i-1], h[i]) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowerHullDuplicateX(t *testing.T) {
	pts := []XY{{1, 5}, {1, 2}, {2, 9}, {2, 1}, {3, 4}}
	h := LowerHull(pts)
	// Only the minimum-Y at each X can appear.
	for _, p := range h {
		if p.X == 1 && p.Y != 2 {
			t.Errorf("kept non-minimal point at x=1: %v", p)
		}
		if p.X == 2 && p.Y != 1 {
			t.Errorf("kept non-minimal point at x=2: %v", p)
		}
	}
}

func TestLowerHullDegenerate(t *testing.T) {
	if h := LowerHull(nil); h != nil {
		t.Errorf("empty hull = %v", h)
	}
	one := LowerHull([]XY{{1, 1}})
	if len(one) != 1 || one[0] != (XY{1, 1}) {
		t.Errorf("single point hull = %v", one)
	}
	two := LowerHull([]XY{{2, 2}, {1, 1}})
	if len(two) != 2 || two[0] != (XY{1, 1}) {
		t.Errorf("two point hull = %v", two)
	}
}

func TestPiecewiseLinearInterpolation(t *testing.T) {
	pl := &PiecewiseLinear{Knots: []XY{{0, 0}, {10, 100}, {20, 100}}}
	cases := []struct{ x, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {15, 100}, {20, 100},
		{-5, -50}, // extrapolates with the first segment
		{25, 100}, // extrapolates with the last (flat) segment
	}
	for _, c := range cases {
		if got := pl.At(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("At(%f) = %f, want %f", c.x, got, c.want)
		}
	}
}

func TestPiecewiseLinearDegenerate(t *testing.T) {
	if got := (&PiecewiseLinear{}).At(5); got != 0 {
		t.Errorf("empty curve At = %f", got)
	}
	if got := (&PiecewiseLinear{Knots: []XY{{3, 7}}}).At(100); got != 7 {
		t.Errorf("single-knot curve At = %f", got)
	}
	same := &PiecewiseLinear{Knots: []XY{{3, 7}, {3, 9}}}
	if got := same.At(3); got != 7 {
		t.Errorf("vertical segment At = %f", got)
	}
}
