package grid

import (
	"cmp"
	"math/bits"
	"slices"
)

// CoverageArgmax returns the set of cells covered by the maximum number
// of the given constraints, along with that maximum count. It is the
// discrete analogue of "the largest subset of disks whose intersection
// is nonempty" from CBG++ (§5.1): any cell covered by k disks witnesses
// a k-subset with nonempty intersection, so the cells at the maximum
// count are exactly the intersection of the largest such subset(s). No
// constraint covering any cell (including no constraints at all) gives
// an empty region and 0. Every constraint must be built on g's masks;
// the annulus cells it refines are counted against the first
// constraint's cache.
//
// The per-cell counts are bit-sliced: bit b of the counts of one word's
// 64 cells is one word of plane b, and there are ⌈log₂(k+1)⌉ planes.
// Words are added four at a time through a carry-save adder tree, so
// counting is word arithmetic and never visits a cell on its own. A
// maximum is read from the top plane down: a plane that holds a bit for
// any surviving candidate sets that bit of the maximum and narrows the
// candidates to the cells that have it; a plane where no candidate has
// the bit leaves them alone. After the lowest plane the candidates are
// exactly the cells whose count equals the maximum (DESIGN.md §8,
// "Bit-sliced coverage").
//
// Strict first (DESIGN.md §8, "Strict first"): when the constraints
// share a cell, the answer is their intersection with count len(cs). A
// cell in every constraint counts len(cs), and no cell counts more, so
// the argmax is exactly Intersect(cs). Only when that is empty does the
// count below run; the empty region Intersect returned becomes its
// output.
//
// The exact predicate is pruned (DESIGN.md §8, "Pruned refinement").
// The sure words count into a lower bound L and the maybe words into an
// upper bound U. Every cell whose count is the maximum M has
// U ≥ M ≥ max L, so only the cells with U ≥ max L are candidates, and
// only their annulus cells are refined into L. L is then exact on every
// candidate, and the argmax is read from L over the candidates alone.
func (g *Grid) CoverageArgmax(cs []Constraint) (*Region, int) {
	out := g.Intersect(cs)
	if len(cs) == 0 || !out.Empty() {
		return out, len(cs)
	}
	nw := len(out.bits)
	np := bits.Len(uint(len(cs)))
	// Plane b of word w is at w*np+b, so one add touches adjacent
	// words. Counts never exceed len(cs) < 2^np, so every carry is spent
	// before it passes the top plane.
	planes := make([]uint64, 2*nw*np)
	lower, upper := planes[:nw*np], planes[nw*np:]
	addLevels(lower, upper, np, cs)
	for i := range cs {
		c := &cs[i]
		adjust(lower, np, c.cw, c.cb, b2i(c.centerIn)-b2i(c.sure.word(c.cw)&c.cb != 0))
	}
	// upper held the annulus counts; it becomes L + annulus, the count
	// of the maybe words with the center bits set by the rule.
	for i := 0; i < len(upper); i += np {
		var carry uint64
		for b := i; b < i+np; b++ {
			upper[b], carry = csa(upper[b], lower[b], carry)
		}
	}

	cand := out.bits
	for w := range cand {
		cand[w] = ^uint64(0)
	}
	atLeast(upper, np, narrowToMax(lower, np, cand), cand)
	if tail := g.total % 64; tail != 0 {
		cand[nw-1] &= 1<<uint(tail) - 1
	}
	idx := make([]int32, 0, nw)
	for w, x := range cand {
		if x != 0 {
			idx = append(idx, int32(w))
		}
	}
	var refined uint64
	for i := range cs {
		c := &cs[i]
		for _, w32 := range idx {
			w := int(w32)
			if w < c.maybe.lo {
				continue
			}
			if w >= c.maybe.hi {
				break
			}
			if ann := cand[w] & c.annulus(w); ann != 0 {
				refined += uint64(bits.OnesCount64(ann))
				ripple(lower, w*np, c.refine(w, ann))
			}
		}
	}
	cs[0].cm.addRefined(refined)

	maxc := narrowToMax(lower, np, cand)
	if maxc == 0 {
		clear(cand)
	}
	return out, maxc
}

// addLevels adds each constraint's sure words into the bit-sliced
// counter lower and its annulus words, without the center bit, into
// ann, four constraints at a time over the union of their maybe spans.
func addLevels(lower, ann []uint64, np int, cs []Constraint) {
	// Grouping constraints by where their spans start keeps the union of
	// a group's spans near each member's own span.
	order := make([]*Constraint, len(cs))
	for i := range cs {
		order[i] = &cs[i]
	}
	slices.SortStableFunc(order, func(a, b *Constraint) int { return cmp.Compare(a.maybe.lo, b.maybe.lo) })
	j := 0
	for ; j+4 <= len(order); j += 4 {
		c0, c1, c2, c3 := order[j], order[j+1], order[j+2], order[j+3]
		hi := max(c0.maybe.hi, c1.maybe.hi, c2.maybe.hi, c3.maybe.hi)
		for w := min(c0.maybe.lo, c1.maybe.lo, c2.maybe.lo, c3.maybe.lo); w < hi; w++ {
			x0, a0 := c0.words(w)
			x1, a1 := c1.words(w)
			x2, a2 := c2.words(w)
			x3, a3 := c3.words(w)
			i := w * np
			add4(ann, i, a0, a1, a2, a3)
			add4(lower, i, x0, x1, x2, x3)
		}
	}
	for _, c := range order[j:] {
		for w := c.maybe.lo; w < c.maybe.hi; w++ {
			x, a := c.words(w)
			ripple(lower, w*np, x)
			ripple(ann, w*np, a)
		}
	}
}

// add4 adds four one-bit-per-cell words into the bit-sliced counter
// whose planes start at planes[i], through a carry-save adder tree.
func add4(planes []uint64, i int, x0, x1, x2, x3 uint64) {
	if x0|x1|x2|x3 == 0 {
		return
	}
	ones, a := csa(planes[i], x0, x1)
	ones, b := csa(ones, x2, x3)
	twos, c := csa(planes[i+1], a, b)
	planes[i], planes[i+1] = ones, twos
	ripple(planes, i+2, c)
}

// narrowToMax narrows cand to the cells of cand whose count is the
// largest among them and returns that count. The bits of cand are left
// as they were when the count is 0.
func narrowToMax(planes []uint64, np int, cand []uint64) int {
	maxc := 0
	for b := np - 1; b >= 0; b-- {
		hit := false
		for w, c := range cand {
			if c&planes[w*np+b] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		maxc |= 1 << b
		for w := range cand {
			cand[w] &= planes[w*np+b]
		}
	}
	return maxc
}

// atLeast sets cand to the cells whose count is at least m < 2^np: a
// bit-sliced compare against a constant, from the top plane down.
func atLeast(planes []uint64, np, m int, cand []uint64) {
	for w := range cand {
		p := planes[w*np : w*np+np]
		var gt uint64
		eq := ^uint64(0)
		for b := np - 1; b >= 0; b-- {
			if m>>b&1 != 0 {
				eq &= p[b]
			} else {
				gt |= eq & p[b]
				eq &^= p[b]
			}
		}
		cand[w] = gt | eq
	}
}

// adjust adds delta (−1, 0 or +1) to the count of the one cell at bit b
// of word w.
func adjust(planes []uint64, np, w int, b uint64, delta int) {
	if delta == 0 {
		return
	}
	p := planes[w*np : w*np+np]
	n := 0
	for i, x := range p {
		if x&b != 0 {
			n |= 1 << i
		}
	}
	n += delta
	for i := range p {
		if n>>i&1 != 0 {
			p[i] |= b
		} else {
			p[i] &^= b
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// csa is a carry-save adder: per bit, the sum and carry of a + b + c.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// ripple adds the one-bit-per-cell word x into the bit-sliced counter
// whose planes start at planes[i].
func ripple(planes []uint64, i int, x uint64) {
	for ; x != 0; i++ {
		planes[i], x = planes[i]^x, planes[i]&x
	}
}
