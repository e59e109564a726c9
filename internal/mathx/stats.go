package mathx

import "math"

// Mean returns the arithmetic mean of xs (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation, without modifying the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileOf(append([]float64(nil), xs...), q)
}

// quantileOf is Quantile over a non-empty scratch slice, which it
// reorders: it selects the two order statistics it reads rather than
// sorting them into place.
func quantileOf(s []float64, q float64) float64 {
	lo, frac := 0, 0.0
	switch {
	case q >= 1:
		lo = len(s) - 1
	case q > 0:
		lo, frac = quantilePos(len(s), q)
	}
	a, b := selectPair(s, lo)
	if q <= 0 || q >= 1 || lo+1 >= len(s) {
		return a
	}
	return lerp(a, b, frac)
}

// quantilePos locates the q-quantile (0 < q < 1) of n sorted values:
// the value at rank lo, moved toward rank lo+1 by frac.
func quantilePos(n int, q float64) (lo int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	return lo, pos - float64(lo)
}

// lerp interpolates between adjacent order statistics. Quantile and
// TheilSen share it so their results agree to the bit.
func lerp(a, b, frac float64) float64 {
	return a*(1-frac) + b*frac
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FTestNested compares two nested linear models by their residual sums of
// squares: rssFull with dfFull residual degrees of freedom against
// rssReduced with dfReduced. It returns the F statistic; large values mean
// the extra parameters of the full model matter. (We report F only — the
// paper quotes F and p; computing exact p-values needs the incomplete beta
// function, approximated here via FTestPValue.)
func FTestNested(rssReduced, rssFull float64, dfReduced, dfFull int) float64 {
	dn := dfReduced - dfFull
	if dn <= 0 || dfFull <= 0 || rssFull <= 0 {
		return math.NaN()
	}
	return ((rssReduced - rssFull) / float64(dn)) / (rssFull / float64(dfFull))
}

// FTestPValue approximates the upper-tail p-value of an F(d1, d2)
// distribution via the regularized incomplete beta function computed with
// a continued fraction (Lentz's algorithm).
func FTestPValue(f float64, d1, d2 int) float64 {
	if math.IsNaN(f) || f <= 0 || d1 <= 0 || d2 <= 0 {
		return math.NaN()
	}
	x := float64(d2) / (float64(d2) + float64(d1)*f)
	return regIncBeta(float64(d2)/2, float64(d1)/2, x)
}

// regIncBeta computes I_x(a, b), the regularized incomplete beta function,
// via the standard continued-fraction expansion (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) where the continued
	// fraction converges fastest.
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	const maxIter = 300
	const eps = 1e-13
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= maxIter; i++ {
		var num float64
		m := i / 2
		fm := float64(m)
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = (fm * (b - fm) * x) / ((a + 2*fm - 1) * (a + 2*fm))
		default:
			num = -((a + fm) * (a + b + fm) * x) / ((a + 2*fm) * (a + 2*fm + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < 1e-30 {
			d = 1e-30
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < 1e-30 {
			c = 1e-30
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
