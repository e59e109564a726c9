package mathx

import (
	"math/bits"
	"slices"
)

// selectPair reorders v and returns the two values sort.Float64s(v)
// would leave at v[k] and v[k+1] (v[k] twice when k is the last index).
// NaN orders first, as it does there; ±0 compare equal, so a zero may
// carry either sign, as after sorting. It allocates nothing and runs in
// linear time on any input but a crafted one, where it falls back to
// sorting the range it has left.
func selectPair(v []float64, k int) (a, b float64) {
	nan := 0
	for i, x := range v {
		if x != x {
			v[i], v[nan] = v[nan], x
			nan++
		}
	}
	if k < nan {
		switch {
		case k+1 == len(v):
			return v[k], v[k]
		case k+1 < nan:
			return v[k], v[k+1]
		}
		return v[k], minOf(v[nan:])
	}
	rest, r := v[nan:], k-nan
	selectRank(rest, r)
	if r+1 == len(rest) {
		return rest[r], rest[r]
	}
	return rest[r], minOf(rest[r+1:])
}

// selectRank reorders v, which holds no NaN, so that v[k] is its rank-k
// value with nothing greater before it and nothing smaller after it:
// Hoare partitioning around a median-of-three pivot, into the side that
// holds k. A range still unresolved after 2·log₂n partitions is sorted.
func selectRank(v []float64, k int) {
	lo, hi := 0, len(v)-1
	for budget := 2 * bits.Len(uint(len(v))); hi > lo; budget-- {
		if budget == 0 {
			slices.Sort(v[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		// v[lo] ≤ p ≤ v[hi] stop both scans inside the range.
		p := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for p < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// Now v[lo..j] ≤ p ≤ v[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// minOf returns the smallest value of a non-empty v that holds no NaN.
func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
