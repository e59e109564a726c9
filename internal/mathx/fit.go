// Package mathx provides the numerical routines the geolocation algorithms
// rely on: ordinary and robust line fitting, constrained cubic least
// squares, lower convex hulls, empirical CDFs, and basic linear-model
// statistics (R², F-tests).
//
// Everything here is plain float64 math over slices; no external solvers.
package mathx

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a fit is requested with fewer points
// than free parameters.
var ErrInsufficientData = errors.New("mathx: insufficient data for fit")

// Line is y = Intercept + Slope*x.
type Line struct {
	Slope     float64
	Intercept float64
}

// At evaluates the line at x.
func (l Line) At(x float64) float64 { return l.Intercept + l.Slope*x }

// InvertX returns the x at which the line attains y. It returns +Inf for a
// zero slope with y above the intercept, and 0 for y below the intercept.
func (l Line) InvertX(y float64) float64 {
	if l.Slope == 0 {
		if y >= l.Intercept {
			return math.Inf(1)
		}
		return 0
	}
	x := (y - l.Intercept) / l.Slope
	if x < 0 {
		return 0
	}
	return x
}

// FitLine computes the ordinary-least-squares line through (x, y).
func FitLine(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("mathx: mismatched slice lengths")
	}
	if len(x) < 2 {
		return Line{}, ErrInsufficientData
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Line{}, errors.New("mathx: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	return Line{Slope: slope, Intercept: (sy - slope*sx) / n}, nil
}

// LineCI is a fitted line with 95% confidence half-widths on its
// parameters — the gray bands of the paper's Figure 4.
type LineCI struct {
	Line
	SlopeCI95     float64 // half-width of the slope's 95% CI
	InterceptCI95 float64
	ResidualSE    float64
}

// FitLineCI fits by OLS and computes normal-approximation 95% confidence
// intervals for both parameters.
func FitLineCI(x, y []float64) (LineCI, error) {
	line, err := FitLine(x, y)
	if err != nil {
		return LineCI{}, err
	}
	n := float64(len(x))
	if n < 3 {
		return LineCI{Line: line}, nil
	}
	mx := Mean(x)
	var ssRes, sxx float64
	for i := range x {
		r := y[i] - line.At(x[i])
		ssRes += r * r
		d := x[i] - mx
		sxx += d * d
	}
	se := math.Sqrt(ssRes / (n - 2))
	out := LineCI{Line: line, ResidualSE: se}
	if sxx > 0 {
		seSlope := se / math.Sqrt(sxx)
		var sx2 float64
		for _, v := range x {
			sx2 += v * v
		}
		seIntercept := se * math.Sqrt(sx2/(n*sxx))
		const z95 = 1.96
		out.SlopeCI95 = z95 * seSlope
		out.InterceptCI95 = z95 * seIntercept
	}
	return out, nil
}

// FitLineThroughOrigin computes the least-squares slope of y = Slope*x.
func FitLineThroughOrigin(x, y []float64) (Line, error) {
	if len(x) != len(y) || len(x) == 0 {
		return Line{}, ErrInsufficientData
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return Line{}, errors.New("mathx: degenerate x values")
	}
	return Line{Slope: sxy / sxx}, nil
}

// RSquared returns the coefficient of determination of predictions pred
// against observations y.
func RSquared(y, pred []float64) float64 {
	if len(y) != len(pred) || len(y) == 0 {
		return math.NaN()
	}
	mean := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		r := y[i] - pred[i]
		ssRes += r * r
		d := y[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Cubic is y = C0 + C1·x + C2·x² + C3·x³.
type Cubic struct {
	C [4]float64
}

// At evaluates the polynomial at x.
func (c Cubic) At(x float64) float64 {
	return c.C[0] + x*(c.C[1]+x*(c.C[2]+x*c.C[3]))
}

// IncreasingOn reports whether the cubic is nondecreasing over [lo, hi],
// checked at the analytic critical points of its derivative.
func (c Cubic) IncreasingOn(lo, hi float64) bool {
	// derivative: C1 + 2·C2·x + 3·C3·x²  must be ≥ 0 on [lo, hi].
	d := func(x float64) float64 { return c.C[1] + 2*c.C[2]*x + 3*c.C[3]*x*x }
	if d(lo) < -1e-9 || d(hi) < -1e-9 {
		return false
	}
	// Vertex of the derivative parabola.
	if c.C[3] != 0 {
		v := -c.C[2] / (3 * c.C[3])
		if v > lo && v < hi && d(v) < -1e-9 {
			return false
		}
	}
	return true
}

// FitCubic fits a cubic polynomial to (x, y) by least squares, solving the
// 4×4 normal equations with partial-pivot Gaussian elimination.
func FitCubic(x, y []float64) (Cubic, error) {
	if len(x) != len(y) {
		return Cubic{}, errors.New("mathx: mismatched slice lengths")
	}
	if len(x) < 4 {
		return Cubic{}, ErrInsufficientData
	}
	// Normal equations: (XᵀX) c = Xᵀy with X = [1 x x² x³].
	var a [4][5]float64
	var pows [7]float64 // Σ x^k for k=0..6
	var rhs [4]float64
	for i := range x {
		p := 1.0
		for k := 0; k <= 6; k++ {
			pows[k] += p
			if k < 4 {
				rhs[k] += p * y[i]
			}
			p *= x[i]
		}
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			a[r][c] = pows[r+c]
		}
		a[r][4] = rhs[r]
	}
	coef, err := solve4(a)
	if err != nil {
		return Cubic{}, err
	}
	return Cubic{C: coef}, nil
}

// FitCubicIncreasing fits a cubic to (x, y) and, if the unconstrained fit
// is not nondecreasing over the observed x range, falls back first to a
// quadratic-free ("shrunk") cubic and ultimately to the OLS line — matching
// the paper's Spotter reimplementation, which constrains each curve to be
// increasing everywhere because "anything more flexible led to severe
// overfitting".
func FitCubicIncreasing(x, y []float64) (Cubic, error) {
	if len(x) < 4 {
		ln, err := FitLine(x, y)
		if err != nil {
			return Cubic{}, err
		}
		return Cubic{C: [4]float64{ln.Intercept, ln.Slope, 0, 0}}, nil
	}
	lo, hi := MinMax(x)
	c, err := FitCubic(x, y)
	if err == nil && c.IncreasingOn(lo, hi) {
		return c, nil
	}
	// The OLS line is the monotone anchor (after flooring its slope at
	// zero); blend the cubic toward it and keep the most cubic-like
	// monotone blend. Blending full coefficient vectors preserves fit
	// quality far better than merely shrinking the nonlinear terms.
	ln, lerr := FitLine(x, y)
	if lerr != nil {
		return Cubic{}, lerr
	}
	if ln.Slope < 0 {
		ln.Slope = 0
		ln.Intercept = Mean(y)
	}
	lineCubic := Cubic{C: [4]float64{ln.Intercept, ln.Slope, 0, 0}}
	if err == nil {
		for _, alpha := range []float64{0.8, 0.6, 0.4, 0.2, 0.1} {
			var b Cubic
			for i := range b.C {
				b.C[i] = alpha*c.C[i] + (1-alpha)*lineCubic.C[i]
			}
			if b.IncreasingOn(lo, hi) {
				return b, nil
			}
		}
	}
	return lineCubic, nil
}

func solve4(a [4][5]float64) ([4]float64, error) {
	const n = 4
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			return [4]float64{}, errors.New("mathx: singular normal equations")
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var out [4]float64
	for i := 0; i < n; i++ {
		out[i] = a[i][n] / a[i][i]
	}
	return out, nil
}
