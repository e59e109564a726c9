package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sortedQuantile is Quantile's reference: it sorts a copy and
// interpolates between the two ranks it reads.
func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	lo, frac := quantilePos(len(s), q)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return lerp(s[lo], s[lo+1], frac)
}

// oracleSlopes lists every pairwise slope in input order, sorted.
func oracleSlopes(x, y []float64) []float64 {
	slopes := make([]float64, 0, len(x)*(len(x)-1)/2)
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; dx != 0 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	sort.Float64s(slopes)
	return slopes
}

// theilSenOracle is the O(n²) reference: it lists every pairwise slope
// and interpolates their sorted median. TheilSen must return the same
// line, up to the sign of a zero. It also returns the sorted slopes.
func theilSenOracle(x, y []float64) (Line, []float64, error) {
	if len(x) != len(y) {
		return Line{}, nil, errMismatchedLengths
	}
	n := len(x)
	if n < 2 {
		return Line{}, nil, ErrInsufficientData
	}
	slopes := oracleSlopes(x, y)
	if len(slopes) == 0 {
		return Line{}, nil, errDegenerateX
	}
	slope := sortedQuantile(slopes, 0.5)
	resid := make([]float64, n)
	for i := range x {
		resid[i] = y[i] - slope*x[i]
	}
	return Line{Slope: slope, Intercept: sortedQuantile(resid, 0.5)}, slopes, nil
}

// same reports whether two floats agree: == lets ±0 match, and NaN
// (an infinite slope's intercept) matches NaN.
func same(u, v float64) bool { return u == v || u != u && v != v }

// sameLine reports whether two fits agree.
func sameLine(a, b Line) bool {
	return same(a.Slope, b.Slope) && same(a.Intercept, b.Intercept)
}

// checkTheilSen fails t unless TheilSen and the oracle agree on (x, y).
// Inputs in the base case never reach the inversion-count machinery,
// so on those the median ranks are also selected by one scan over the
// whole slope range and from a sampled bracket. Larger inputs take the
// sampled path in TheilSen itself.
func checkTheilSen(t *testing.T, x, y []float64) {
	t.Helper()
	got, gotErr := TheilSen(x, y)
	want, all, wantErr := theilSenOracle(x, y)
	if gotErr != wantErr || !sameLine(got, want) {
		t.Fatalf("n=%d: TheilSen = %+v, %v; oracle = %+v, %v", len(x), got, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	s := new(slopeSelector)
	s.load(x, y)
	if s.pairs > directPairs {
		return
	}
	k, _ := quantilePos(s.pairs, 0.5)
	need := min(k+2, s.pairs)
	if v0, v1, ok := s.selectIn(math.Inf(-1), math.Inf(1), k, need, math.NaN()); !ok || !same(v0, all[k]) || !same(v1, all[need-1]) {
		t.Fatalf("n=%d: whole-range scan = %v, %v, %v; want %v, %v", len(x), v0, v1, ok, all[k], all[need-1])
	}
	if v0, v1 := s.selectSampled(k, need); !same(v0, all[k]) || !same(v1, all[need-1]) {
		t.Fatalf("n=%d: sampled bracket = %v, %v; want %v, %v", len(x), v0, v1, all[k], all[need-1])
	}
}

// theilSenCorpus generates the point sets the fuzz target is seeded
// with and the oracle test checks: each stresses one way the selection
// could drift from the enumeration.
func theilSenCorpus() []theilSenCase {
	rng := rand.New(rand.NewSource(17))
	gen := func(name string, n int, f func(i int) (float64, float64)) theilSenCase {
		c := theilSenCase{name, make([]float64, n), make([]float64, n)}
		for i := range c.x {
			c.x[i], c.y[i] = f(i)
		}
		return c
	}
	// The lattice is detect's synthetic mesh: anchors 600 km apart,
	// every distance repeated, and a ripple that ties a fifth of the
	// slopes.
	lattice := theilSenCase{name: "lattice"}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i != j {
				d := math.Abs(float64(i-j)) * 600
				lattice.x = append(lattice.x, d)
				lattice.y = append(lattice.y, 0.012*d+5+0.3*float64((i*7+j*13)%5))
			}
		}
	}
	return []theilSenCase{
		{"two points", []float64{3, 1}, []float64{2, 7}},
		gen("all equal x", 40, func(i int) (float64, float64) { return 5, float64(i % 7) }),
		gen("one distinct", 40, func(i int) (float64, float64) { return float64(i / 39), float64(i) }),
		lattice,
		gen("duplicates", 300, func(i int) (float64, float64) {
			return float64(i % 11), float64(i%11)*2 + float64(i%3)
		}),
		gen("ulps apart", 200, func(i int) (float64, float64) {
			return 1 + float64(i%50)*0x1p-52, float64(rng.Intn(5))
		}),
		gen("zero slopes", 400, func(int) (float64, float64) {
			return rng.Float64() * 100, math.Round(rng.NormFloat64() / 3)
		}),
		// Exactly on a line up to rounding: every slope is within a few
		// ULPs of 0.3, where a rounded u misorders pairs.
		gen("on a line", 300, func(int) (float64, float64) {
			x := float64(rng.Intn(1000)) + rng.Float64()
			return x, 0.3 * x
		}),
		gen("negative", 150, func(i int) (float64, float64) {
			return -float64(i) * 1e-3, -1e6 + float64(rng.Intn(100))
		}),
		// Subnormal dx: slopes overflow to ±Inf.
		gen("infinite slopes", 60, func(i int) (float64, float64) {
			return float64(i%7) * 0x1p-1074, float64(rng.Intn(9)) - 4
		}),
		// Near the input bound, where u = y − t·x overflows.
		gen("huge", 120, func(int) (float64, float64) {
			return (rng.Float64() - 0.5) * 0x1p1023, (rng.Float64() - 0.5) * 0x1p1023
		}),
		// A measured-looking mesh: RTT along a line with jitter and a
		// tenth gross outliers.
		gen("mesh 2256", 2256, func(int) (float64, float64) {
			d := rng.Float64() * 18000
			rtt := 0.015*d + 4 + rng.ExpFloat64()*3
			if rng.Intn(10) == 0 {
				rtt += 50 + rng.Float64()*200
			}
			return d, rtt
		}),
	}
}

type theilSenCase struct {
	name string
	x, y []float64
}

func TestTheilSenMatchesOracle(t *testing.T) {
	for _, c := range theilSenCorpus() {
		t.Run(c.name, func(t *testing.T) { checkTheilSen(t, c.x, c.y) })
	}
}

// TestTheilSenConcurrent: fits draw their buffers from a shared pool,
// so concurrent fits must match serial ones.
func TestTheilSenConcurrent(t *testing.T) {
	cases := theilSenCorpus()
	want := make([]Line, len(cases))
	for i, c := range cases {
		want[i], _ = TheilSen(c.x, c.y)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				j := (i + w) % len(cases) // each worker starts elsewhere
				if got, _ := TheilSen(cases[j].x, cases[j].y); !sameLine(got, want[j]) {
					t.Errorf("%s: concurrent fit %+v, serial %+v", cases[j].name, got, want[j])
				}
			}
		}()
	}
	wg.Wait()
}

// TestTheilSenTiedBlock: when more than maxKept slopes tie at the median
// the selection pivots instead of keeping them, and must still match.
func TestTheilSenTiedBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("half-million-slope oracle")
	}
	rng := rand.New(rand.NewSource(3))
	n := 1000
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 1000
		if rng.Intn(10) < 7 {
			y[i] = 1
		} else {
			y[i] = float64(rng.Intn(3))
		}
	}
	checkTheilSen(t, x, y)
}

// TestSlopeSelectorRanks selects ranks across the whole slope range, not
// only the median. Off-median ranks miss the sampled bracket more often
// and so exercise the widening; a bracket of more than maxKept slopes
// ("wide") exercises the pivoting.
func TestSlopeSelectorRanks(t *testing.T) {
	var cases []theilSenCase
	for _, c := range theilSenCorpus() {
		if len(c.x) > 100 && len(c.x) < 1000 {
			cases = append(cases, c)
		}
	}
	if !testing.Short() {
		rng := rand.New(rand.NewSource(5))
		x, y := make([]float64, 700), make([]float64, 700)
		for i := range x {
			x[i], y[i] = rng.NormFloat64()*100, rng.NormFloat64()*100
		}
		cases = append(cases, theilSenCase{"wide", x, y})
	}
	for _, c := range cases {
		name, s := c.name, new(slopeSelector)
		s.load(c.x, c.y)
		var all []float64
		for p := range s.x {
			for q := p + 1; q < len(s.x); q++ {
				if dx := s.x[q] - s.x[p]; dx != 0 {
					all = append(all, (s.y[q]-s.y[p])/dx)
				}
			}
		}
		sort.Float64s(all)
		for k := 0; k+1 < s.pairs; k += 1 + s.pairs/61 {
			if v0, v1 := s.selectRanks(k, k+2); v0 != all[k] || v1 != all[k+1] {
				t.Fatalf("%s: ranks %d, %d = %v, %v; want %v, %v", name, k, k+1, v0, v1, all[k], all[k+1])
			}
		}
		// From the widest bracket, with pivots that miss the ranks on
		// either side, hold one of them, or hold both.
		for _, k := range []int{0, s.pairs / 3, s.pairs - 2} {
			for _, pivot := range []float64{math.NaN(), all[0], all[k], all[k+1], all[s.pairs-1]} {
				v0, v1, ok := s.selectIn(math.Inf(-1), math.Inf(1), k, k+2, pivot)
				if !ok || v0 != all[k] || v1 != all[k+1] {
					t.Fatalf("%s: ranks %d, %d from pivot %v = %v, %v, %v; want %v, %v", name, k, k+1, pivot, v0, v1, ok, all[k], all[k+1])
				}
			}
		}
		k := s.pairs / 3
		if _, _, ok := s.selectIn(math.Nextafter(all[k+1], math.Inf(1)), math.Inf(1), k, k+2, math.NaN()); ok {
			t.Fatalf("%s: a bracket above rank %d claims to hold it", name, k)
		}
	}
}

func TestTheilSenErrors(t *testing.T) {
	if _, err := TheilSen([]float64{1, 2}, []float64{1}); err != errMismatchedLengths {
		t.Errorf("mismatched lengths: err = %v", err)
	}
	if _, err := TheilSen([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Errorf("one point: err = %v", err)
	}
	if _, err := TheilSen([]float64{2, 2, 2}, []float64{1, 2, 3}); err != errDegenerateX {
		t.Errorf("equal x: err = %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		if _, err := TheilSen([]float64{1, bad, 3}, []float64{1, 2, 3}); err != ErrNonFinite {
			t.Errorf("x=%v: err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := TheilSen([]float64{1, 2, 3}, []float64{bad, 2, 3}); err != ErrNonFinite {
			t.Errorf("y=%v: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// encodePoints packs (x, y) pairs as little-endian float64 bits, the
// fuzz target's input format.
func encodePoints(x, y []float64) []byte {
	b := make([]byte, 0, 16*len(x))
	for i := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x[i]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y[i]))
	}
	return b
}

// FuzzTheilSen checks TheilSen against the enumeration oracle on
// arbitrary point sets: 16 bytes per point, x then y.
func FuzzTheilSen(f *testing.F) {
	for _, c := range theilSenCorpus() {
		f.Add(encodePoints(c.x, c.y))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n > 4096 {
			t.Skip("oracle too slow")
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		for i := range x {
			if !(math.Abs(x[i]) <= math.MaxFloat64/2 && math.Abs(y[i]) <= math.MaxFloat64/2) {
				if _, err := TheilSen(x, y); n >= 2 && err != ErrNonFinite {
					t.Fatalf("out-of-range input: err = %v, want ErrNonFinite", err)
				}
				return
			}
		}
		checkTheilSen(t, x, y)
	})
}

func BenchmarkTheilSen(b *testing.B) {
	corpus := theilSenCorpus()
	c := corpus[len(corpus)-1] // mesh 2256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TheilSen(c.x, c.y); err != nil {
			b.Fatal(err)
		}
	}
}
