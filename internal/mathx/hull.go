package mathx

import "sort"

// XY is a point in the plane, used by convex-hull routines over
// (distance, delay) calibration scatter.
type XY struct {
	X, Y float64
}

// LowerHull returns the lower convex hull of the given points, sorted by
// increasing X. The lower hull is the boundary an Octant-style calibration
// traces under a delay-vs-distance scatterplot: the fastest observed travel
// at every distance. Ties in X keep only the lowest Y.
func LowerHull(pts []XY) []XY {
	if len(pts) == 0 {
		return nil
	}
	s := append([]XY(nil), pts...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].X != s[j].X {
			return s[i].X < s[j].X
		}
		return s[i].Y < s[j].Y
	})
	// Drop duplicate X, keeping the minimum Y (already first after sort).
	uniq := s[:0]
	for i, p := range s {
		if i > 0 && p.X == uniq[len(uniq)-1].X {
			continue
		}
		uniq = append(uniq, p)
	}
	s = uniq
	if len(s) <= 2 {
		return append([]XY(nil), s...)
	}
	hull := make([]XY, 0, len(s))
	for _, p := range s {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull
}

// UpperHull returns the upper convex hull of the given points, sorted by
// increasing X: the slowest observed travel at every distance.
func UpperHull(pts []XY) []XY {
	neg := make([]XY, len(pts))
	for i, p := range pts {
		neg[i] = XY{X: p.X, Y: -p.Y}
	}
	h := LowerHull(neg)
	for i := range h {
		h[i].Y = -h[i].Y
	}
	return h
}

// cross returns the z component of (b-a) × (c-a); positive when the turn
// a→b→c is counterclockwise.
func cross(a, b, c XY) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// PiecewiseLinear is a monotone-in-X piecewise-linear curve, evaluated by
// interpolation between knots and linear extrapolation beyond them.
type PiecewiseLinear struct {
	Knots []XY // sorted by X, at least one
}

// At evaluates the curve at x.
func (pl *PiecewiseLinear) At(x float64) float64 {
	k := pl.Knots
	switch {
	case len(k) == 0:
		return 0
	case len(k) == 1:
		return k[0].Y
	case x <= k[0].X:
		return extrapolate(k[0], k[1], x)
	case x >= k[len(k)-1].X:
		return extrapolate(k[len(k)-2], k[len(k)-1], x)
	}
	i := sort.Search(len(k), func(i int) bool { return k[i].X >= x })
	return extrapolate(k[i-1], k[i], x)
}

func extrapolate(a, b XY, x float64) float64 {
	if b.X == a.X {
		return a.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}
