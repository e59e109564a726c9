package mathx

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// MAD returns the median absolute deviation of xs about its median — the
// robust dispersion estimate the adversary-detection layer scores mesh
// and measurement residuals with (NaN for an empty slice). No
// consistency factor is applied; callers compare MADs to MADs.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, v := range xs {
		devs[i] = math.Abs(v - m)
	}
	return quantileOf(devs, 0.5)
}

// ErrTrimRange is returned when TrimmedLine's trim fraction is outside
// [0, 0.5).
var ErrTrimRange = errors.New("mathx: trim fraction must be in [0, 0.5)")

// TrimmedLine fits y = a + b·x by iteratively trimmed least squares: a
// Theil–Sen fit seeds the residuals, then (three rounds) the
// floor(trim·n) points with the largest absolute residuals are dropped
// and an OLS line is refit to the keepers. Ties in residual magnitude
// break by index, so the fit is a pure function of its inputs.
//
// The breakdown point is min(trim, ~0.29): contamination up to the trim
// fraction is excluded from the refit as long as the Theil–Sen seed
// (itself good to ~29% outliers) separates the gross outliers'
// residuals from the inliers' — the property the robust-fit tests pin.
// With trim = 0 the function degenerates to plain OLS seeded sanity
// checks (the Theil–Sen pass still runs but nothing is dropped).
func TrimmedLine(x, y []float64, trim float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("mathx: mismatched slice lengths")
	}
	if trim < 0 || trim >= 0.5 {
		return Line{}, ErrTrimRange
	}
	n := len(x)
	drop := int(trim * float64(n))
	keep := n - drop
	if keep < 2 {
		return Line{}, ErrInsufficientData
	}
	line, err := TheilSen(x, y)
	if err != nil {
		return Line{}, err
	}
	if drop == 0 {
		if ols, err := FitLine(x, y); err == nil {
			return ols, nil
		}
		return line, nil
	}
	idx := make([]int, n)
	resid := make([]float64, n)
	kx := make([]float64, 0, keep)
	ky := make([]float64, 0, keep)
	for iter := 0; iter < 3; iter++ {
		for i := range idx {
			idx[i] = i
			resid[i] = math.Abs(y[i] - line.At(x[i]))
		}
		slices.SortFunc(idx, func(a, b int) int {
			if c := cmp.Compare(resid[a], resid[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		kx, ky = kx[:0], ky[:0]
		for _, i := range idx[:keep] {
			kx = append(kx, x[i])
			ky = append(ky, y[i])
		}
		refit, err := FitLine(kx, ky)
		if err != nil {
			// Degenerate keeper set (e.g. all x equal): the previous
			// robust line is the best available answer.
			return line, nil
		}
		if refit == line {
			break
		}
		line = refit
	}
	return line, nil
}
