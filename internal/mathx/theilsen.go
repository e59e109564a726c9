package mathx

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
)

// ErrNonFinite is returned by TheilSen when an input is NaN, infinite,
// or larger in magnitude than MaxFloat64/2, past which a pairwise
// difference could overflow.
var ErrNonFinite = errors.New("mathx: non-finite or out-of-range input")

var (
	errMismatchedLengths = errors.New("mathx: mismatched slice lengths")
	errDegenerateX       = errors.New("mathx: degenerate x values")
)

const (
	// directPairs is the base case: at or below this many pairs every
	// slope is listed outright, with no sampled bracket.
	directPairs = 1 << 12
	// maxKept bounds the slopes one scan keeps. A bracket holding more
	// (a block of tied slopes, or a poor sample) keeps an evenly thinned
	// subsample and is narrowed by pivoting on it.
	maxKept = 1 << 17
)

// TheilSen computes the robust Theil–Sen line: slope is the median of all
// pairwise slopes (y[j]-y[i])/(x[j]-x[i]) over pairs with distinct x,
// intercept the median of y - slope*x. It tolerates up to ~29% outliers,
// which is what the η estimation in the paper's Figure 13 ("a robust
// linear regression") needs.
//
// The median slope is selected, never sorted into place. Up to
// directPairs pairs every slope is listed; beyond that the n(n−1)/2
// pairs are not enumerated: an inversion count ranks a candidate slope
// in O(n log n), a sampled bracket narrows the median to a few pairs,
// and only those are computed (see slopeSelector). The result is the
// float64 that interpolating the fully sorted slope list would give,
// with one exception: a zero median slope may differ in sign, because the
// enumeration computes a tied-y pair over a negative dx as -0 and
// sorting leaves ±0 in no defined order.
func TheilSen(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errMismatchedLengths
	}
	n := len(x)
	if n < 2 {
		return Line{}, ErrInsufficientData
	}
	for i := range x {
		if !(math.Abs(x[i]) <= math.MaxFloat64/2 && math.Abs(y[i]) <= math.MaxFloat64/2) {
			return Line{}, ErrNonFinite
		}
	}
	sel := selectors.Get().(*slopeSelector)
	defer selectors.Put(sel)
	sel.load(x, y)
	if sel.pairs == 0 {
		return Line{}, errDegenerateX
	}
	slope := sel.median()
	resid := sel.key[:0]
	for i := range x {
		resid = append(resid, y[i]-slope*x[i])
	}
	return Line{Slope: slope, Intercept: quantileOf(resid, 0.5)}, nil
}

// slopeSelector selects order statistics of the pairwise slopes of a
// point set. With the points sorted by (x, y), a pair p < q has slope
// below t exactly when u = y − t·x is lower at q than at p, so the
// number of slopes below t is the inversion count of u in point order.
// Computed in floating point that count can misjudge pairs whose slope
// is within rounding of t. widened bounds that zone from the data, so a
// scan between two widened keys lists every pair whose slope can lie
// inside a bracket, and computes each of those slopes exactly as the
// enumeration does.
type slopeSelector struct {
	x, y  []float64 // points sorted by (x, y)
	pairs int       // pairs with distinct x: the slopes the median runs over

	// xMax and yMax bound |x| and |y|; xGap is the smallest gap between
	// distinct x values, the smallest dx any pair can have.
	xMax, yMax, xGap float64

	key       []float64 // per-point sort key at the current t
	perm, tmp []int32   // merge-sort buffers of point positions
	smp, kept []float64 // the sampled slopes; a scan's kept slopes, or all of them in the base case
}

// selectors recycles selector buffers across calls: CrossValidate fits
// hundreds of per-anchor lines after its whole-mesh one.
var selectors = sync.Pool{New: func() any { return new(slopeSelector) }}

// load sorts the points into the selector and measures them.
func (s *slopeSelector) load(x, y []float64) {
	n := len(x)
	s.x, s.y, s.key = resize(s.x, n), resize(s.y, n), resize(s.key, n)
	s.perm, s.tmp = resize(s.perm, n), resize(s.tmp, n)
	order := s.perm
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if x[i] != x[j] {
			return x[i] < x[j]
		}
		if y[i] != y[j] {
			return y[i] < y[j]
		}
		return i < j
	})
	s.pairs, s.xMax, s.yMax, s.xGap = n*(n-1)/2, 0, 0, math.Inf(1)
	run := 1 // points sharing the current x value
	for p, i := range order {
		s.x[p], s.y[p] = x[i], y[i]
		s.xMax = math.Max(s.xMax, math.Abs(x[i]))
		s.yMax = math.Max(s.yMax, math.Abs(y[i]))
		if p == 0 {
			continue
		}
		if dx := s.x[p] - s.x[p-1]; dx != 0 {
			s.xGap = math.Min(s.xGap, dx)
			run = 1
		} else {
			s.pairs -= run // pairs with equal x have no slope
			run++
		}
	}
}

// resize returns b with length n, reallocating only if it is too short.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// median returns the median pairwise slope, interpolated exactly as
// Quantile interpolates the sorted slope list.
func (s *slopeSelector) median() float64 {
	k, frac := quantilePos(s.pairs, 0.5)
	v0, v1 := s.selectRanks(k, min(k+2, s.pairs))
	if k+1 >= s.pairs {
		return v0
	}
	return lerp(v0, v1, frac)
}

// selectRanks returns the slopes of ranks k and need−1 (0-based,
// ascending; need is k+1 or k+2). In the base case it lists every slope,
// exactly as scan computes them, and selects.
func (s *slopeSelector) selectRanks(k, need int) (v0, v1 float64) {
	if s.pairs > directPairs {
		return s.selectSampled(k, need)
	}
	all := s.kept[:0]
	for p := range s.x {
		for q := p + 1; q < len(s.x); q++ {
			if dx := s.x[q] - s.x[p]; dx != 0 {
				all = append(all, (s.y[q]-s.y[p])/dx)
			}
		}
	}
	s.kept = all
	return pickRanks(all, k, need)
}

// selectSampled is selectRanks above the base case. It brackets the
// ranks between two sampled slopes, galloping on the inversion count
// from the sample rank the ranks' share predicts, then widens the
// bracket until selectIn verifies it — at the latest at ±Inf, which
// holds every slope.
func (s *slopeSelector) selectSampled(k, need int) (v0, v1 float64) {
	smp := s.sample()
	at := func(i int) float64 {
		switch {
		case i < 0:
			return math.Inf(-1)
		case i >= len(smp):
			return math.Inf(1)
		}
		return smp[i]
	}
	// The sampled slope at rank k's share is where the bracket search
	// starts and the first pivot: on a block of tied slopes it is
	// usually the answer.
	guess, pivot := k*len(smp)/s.pairs, math.NaN()
	if len(smp) > 0 {
		pivot = smp[guess]
	}
	first, c := s.firstAbove(smp, 0, guess, k)
	li, hi := first-1, first
	if first < len(smp) && c < need {
		hi, _ = s.firstAbove(smp, first+1, first+1, need-1)
	}
	for step := 1; ; step *= 2 {
		if v0, v1, ok := s.selectIn(at(li), at(hi), k, need, pivot); ok {
			return v0, v1
		}
		li, hi = li-step, hi+step
	}
}

// firstAbove returns the first index i ≥ lo of the sorted sample whose
// slope counts more than r slopes below it (len(smp) if none) and that
// count. It probes guess first and gallops away from it, then bisects
// the last step, so a good guess costs a few counts instead of a full
// binary search. Equal slopes count alike, so each probe settles the
// whole run of copies of its slope.
func (s *slopeSelector) firstAbove(smp []float64, lo, guess, r int) (i, count int) {
	// The answer lies in (a, b]; cb is the count at b.
	a, b, cb := lo-1, len(smp), -1
	if lo >= len(smp) {
		return b, cb
	}
	probe := func(i int) bool {
		v := smp[i]
		if c := s.count(v); c > r {
			b, cb = max(sort.SearchFloat64s(smp, v), a+1), c
			return true
		}
		a = min(sort.Search(len(smp), func(j int) bool { return smp[j] > v })-1, b-1)
		return false
	}
	if probe(min(max(guess, lo), len(smp)-1)) {
		for step := 1; b-step > a && probe(b-step); step *= 2 {
		}
	} else {
		for step := 1; a+step < b && !probe(a+step); step *= 2 {
		}
	}
	for b-a > 1 {
		probe(a + (b-a)/2)
	}
	return b, cb
}

// pickRanks selects ranks k and need−1 (need is k+1 or k+2) of v.
func pickRanks(v []float64, k, need int) (v0, v1 float64) {
	v0, v1 = selectPair(v, k)
	if need == k+1 {
		v1 = v0
	}
	return v0, v1
}

// selectIn selects ranks k and need−1 from the slopes in [lo, hi]. Each
// pass scans the bracket once, counting its slopes against the pivot v
// and keeping those that differ from it (thinned past maxKept). The
// ranks are found at the pivot, or selected from the kept slopes when
// all of them fit; otherwise the bracket narrows to one side of the
// pivot and the next pivot is the kept slope at the ranks' share of
// what remains.
// ok is false if the bracket does not hold both ranks.
func (s *slopeSelector) selectIn(lo, hi float64, k, need int, v float64) (v0, v1 float64, ok bool) {
	for {
		kept := thinned{vals: s.kept[:0], stride: 1}
		lt, eq := 0, 0
		lower, upper := math.Inf(-1), math.Inf(1)
		below, ok := s.scan(lo, hi, func(sl float64) {
			switch {
			case sl == v:
				eq++
				return
			case sl < v:
				lt++
				lower = max(lower, sl)
			default:
				upper = min(upper, sl)
			}
			kept.add(sl)
		})
		s.kept = kept.vals
		if !ok || below > k || below+kept.n+eq < need {
			return 0, 0, false
		}
		if lt += below; lt < need && lt+eq > k {
			// The pivot holds a rank or falls between them; a rank it
			// misses is the nearest slope on that side of it.
			v0, v1 = v, v
			if lt > k {
				v0 = lower
			}
			if lt+eq < need {
				v1 = upper
			}
			return v0, v1, true
		}
		if kept.n <= maxKept {
			// The bracket's sorted slopes are the kept ones below v, eq
			// copies of v, then the kept ones above. Both ranks miss v
			// on the same side, so they are adjacent ranks of the kept.
			r := k - below
			if r >= lt-below {
				r -= eq
			}
			v0, v1 = pickRanks(kept.vals, r, r+need-k)
			return v0, v1, true
		}
		sort.Float64s(kept.vals)
		inside := kept.n
		if lo <= v && v <= hi {
			if lt >= need {
				hi = math.Nextafter(v, math.Inf(-1))
				inside = lt - below
			} else {
				lo = math.Nextafter(v, math.Inf(1))
				inside = kept.n - (lt - below)
				below = lt + eq
			}
		}
		rest := kept.vals[sort.SearchFloat64s(kept.vals, lo):]
		rest = rest[:sort.Search(len(rest), func(i int) bool { return rest[i] > hi })]
		v = math.NaN()
		if len(rest) > 0 {
			v = rest[(k-below)*len(rest)/inside]
		}
	}
}

// sample returns a sorted fixed-seed sample of about max(1024, √pairs)
// pairwise slopes.
func (s *slopeSelector) sample() []float64 {
	m := max(1024, int(math.Sqrt(float64(s.pairs))))
	rng := rand.New(rand.NewPCG(1, 2))
	n := len(s.x)
	smp := s.smp[:0]
	for tries := 0; len(smp) < m && tries < 8*m; tries++ {
		p, q := rng.IntN(n), rng.IntN(n-1)
		if q >= p {
			q++
		} else {
			p, q = q, p
		}
		if dx := s.x[q] - s.x[p]; dx != 0 {
			smp = append(smp, (s.y[q]-s.y[p])/dx)
		}
	}
	sort.Float64s(smp)
	s.smp = smp
	return smp
}

// count returns the inversion count of u = y − t·x in point order:
// approximately the number of slopes below t.
func (s *slopeSelector) count(t float64) int {
	s.setKeys(t)
	return s.mergeSort(nil)
}

// scan lists every pair whose slope can lie in [lo, hi]: the pairs
// whose u-order differs between the keys at lo and hi widened by their
// margins. It passes each listed slope inside [lo, hi] to visit and
// returns the exact number of slopes below lo. ok is false if the two
// orders disagree in a way the margins rule out.
func (s *slopeSelector) scan(lo, hi float64, visit func(float64)) (below int, ok bool) {
	s.setKeys(s.widened(lo, -1))
	below = s.mergeSort(nil)
	s.setKeys(s.widened(hi, 1))
	ok = true
	s.mergeSort(func(ps []int32, q int32) {
		for _, p := range ps {
			if p > q {
				// Below lo at the lower key but above hi at the upper one.
				ok = false
				return
			}
			dx := s.x[q] - s.x[p]
			if dx == 0 {
				continue
			}
			switch sl := (s.y[q] - s.y[p]) / dx; {
			case sl < lo:
				below++
			case sl <= hi:
				visit(sl)
			}
		}
	})
	return below, ok
}

// widened moves t past the zone where rounding can misorder u, in
// direction dir (−1 or +1), or to ±Inf when that zone is unbounded. A
// pair inverted at the lowered t' has a computed slope below t; a pair
// not inverted at the raised t' has one above t.
//
// Computing u = y − t'·x errs by at most E = ε(|y| + 2|t'·x|) per point
// (ε = 2⁻⁵³, plus an absolute term for underflow), so an inversion at t'
// can be wrong only for a pair whose exact slope lies within
// 2E/dx ≤ 2E/xGap of t'. The slope division then adds a relative error
// of at most 3ε. The margin covers both with room to spare: it uses
// a = 2ε for ε and four times the first-order bound. E grows with
// |t'| = |t| + margin, so this holds only while 4a·xMax/xGap ≤ 1/4;
// beyond that the margin is unbounded.
func (s *slopeSelector) widened(t float64, dir float64) float64 {
	inf := math.Inf(int(dir))
	if math.IsInf(t, 0) {
		return t
	}
	const a = 0x1p-52
	if !(4*a*s.xMax/s.xGap <= 0.25) {
		return inf
	}
	zone := 2 * (a*(s.yMax+2*math.Abs(t)*s.xMax) + 0x1p-1070) / s.xGap
	m := 4 * (zone + 2*a*math.Abs(t) + 0x1p-1070)
	w := math.Nextafter(t+dir*m, inf)
	if math.IsInf(s.yMax+2*math.Abs(w)*s.xMax, 0) {
		return inf
	}
	return w
}

// setKeys fills key with u = y − t·x. At t = −Inf the u-order is point
// order, keyed by x; at +Inf every distinct-x pair is inverted, keyed by
// −x. Either way, equal x keeps point order, so equal-x pairs never
// count.
func (s *slopeSelector) setKeys(t float64) {
	switch {
	case math.IsInf(t, -1):
		copy(s.key, s.x)
	case math.IsInf(t, 1):
		for i, v := range s.x {
			s.key[i] = -v
		}
	default:
		for i := range s.key {
			s.key[i] = s.y[i] - t*s.x[i]
		}
	}
}

// mergeSort sorts point positions from point order into (key, position)
// order and returns the inversion count: the pairs p < q whose key at q
// sorts first. Called with a nil list it leaves perm in that order;
// called with a list it re-sorts perm's current order by the new keys
// and passes list every inverted pair: each entry q of perm's previous
// order with the earlier entries ps that it now sorts before.
func (s *slopeSelector) mergeSort(list func(ps []int32, q int32)) int {
	src, dst := s.perm, s.tmp
	if list == nil {
		for i := range src {
			src[i] = int32(i)
		}
	}
	key := s.key
	n, inv := len(src), 0
	for w := 1; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, o := lo, mid, lo
			for ; i < mid && j < hi; o++ {
				a, b := src[i], src[j]
				if key[b] < key[a] || key[b] == key[a] && b < a {
					inv += mid - i
					if list != nil {
						list(src[i:mid], b)
					}
					dst[o] = b
					j++
				} else {
					dst[o] = a
					i++
				}
			}
			o += copy(dst[o:], src[i:mid])
			copy(dst[o:], src[j:hi])
		}
		src, dst = dst, src
	}
	s.perm, s.tmp = src, dst
	return inv
}

// thinned keeps an evenly spaced subsample of at most maxKept of the
// values passed to add — every one while n ≤ maxKept — and counts them
// all.
type thinned struct {
	vals      []float64
	n, stride int
}

func (t *thinned) add(v float64) {
	i := t.n
	t.n++
	if i%t.stride != 0 {
		return
	}
	if len(t.vals) == maxKept {
		for j := range maxKept / 2 {
			t.vals[j] = t.vals[2*j]
		}
		t.vals = t.vals[:maxKept/2]
		t.stride *= 2 // i, a multiple of maxKept·stride, stays on it
	}
	t.vals = append(t.vals, v)
}
