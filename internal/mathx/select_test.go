package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSelect fails t unless selectPair and Quantile read xs exactly as
// sorting it would, up to the sign of a zero, and Quantile leaves xs as
// it found it.
func checkSelect(t *testing.T, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(xs)
	ranks := []int{0, n / 3, n / 2, n - 2, n - 1}
	if n <= 16 {
		ranks = ranks[:0]
		for k := range n {
			ranks = append(ranks, k)
		}
	}
	for _, k := range ranks {
		a, b := selectPair(append([]float64(nil), xs...), k)
		if want := sorted[min(k+1, n-1)]; !same(a, sorted[k]) || !same(b, want) {
			t.Fatalf("n=%d: ranks %d, %d = %v, %v; sorting gives %v, %v", n, k, k+1, a, b, sorted[k], want)
		}
	}
	before := append([]float64(nil), xs...)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if got, want := Quantile(xs, q), sortedQuantile(xs, q); !same(got, want) {
			t.Fatalf("n=%d: Quantile(%v) = %v; sorting gives %v", n, q, got, want)
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("n=%d: Quantile modified its input at %d", n, i)
		}
	}
}

// selectCorpus holds the inputs the fuzz target is seeded with and the
// test checks: ties, signed zeros, infinities, NaN, and orders that
// stress a median-of-three pivot.
func selectCorpus() [][]float64 {
	rng := rand.New(rand.NewSource(11))
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	nan, inf := math.NaN(), math.Inf(1)
	return [][]float64{
		{},
		{4},
		{nan},
		{3, 1},
		{nan, 2, nan, -1, 0},
		{inf, -inf, 0, math.Copysign(0, -1), 1, inf, -inf},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)},
		{nan, nan, nan},
		{inf, nan, inf, inf},
		gen(40, func(int) float64 { return 7 }),
		gen(100, func(i int) float64 { return float64(i) }),
		gen(100, func(i int) float64 { return float64(-i) }),
		gen(101, func(i int) float64 { return float64(min(i, 100-i)) }), // organ pipe
		gen(120, func(i int) float64 { return float64(i % 6) }),
		gen(257, func(int) float64 { return float64(rng.Intn(4)) }),
		gen(300, func(int) float64 {
			if rng.Intn(10) == 0 {
				return nan
			}
			return rng.NormFloat64()
		}),
		gen(1081, func(int) float64 { return rng.ExpFloat64() }),
	}
}

func TestSelectMatchesSort(t *testing.T) {
	for _, xs := range selectCorpus() {
		checkSelect(t, xs)
	}
}

// FuzzSelectRank checks the rank selection and Quantile against
// sort.Float64s on arbitrary values: 8 bytes per value.
func FuzzSelectRank(f *testing.F) {
	for _, xs := range selectCorpus() {
		b := make([]byte, 0, 8*len(xs))
		for _, v := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSelect(t, xs)
	})
}
