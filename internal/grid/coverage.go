package grid

import "math/bits"

// CoverageArgmax returns the set of cells covered by the maximum number
// of the given regions, along with that maximum count. It is the
// discrete analogue of "the largest subset of disks whose intersection
// is nonempty" from CBG++ (§5.1): any cell covered by k disks witnesses
// a k-subset with nonempty intersection, so the cells at the maximum
// count are exactly the intersection of the largest such subset(s). No
// region covering any cell (including no regions at all) gives an empty
// region and 0. Every region must belong to g.
//
// The per-cell counts are bit-sliced: bit b of the counts of one word's
// 64 cells is one word of plane b, and there are ⌈log₂(k+1)⌉ planes.
// Regions are added four at a time through a carry-save adder tree, so
// counting is word arithmetic and never visits a cell on its own. The
// maximum is then read from the top plane down: a plane that holds a bit
// for any surviving candidate sets that bit of the maximum and narrows
// the candidates to the cells that have it; a plane where no candidate
// has the bit leaves them alone. After the lowest plane the candidates
// are exactly the cells whose count equals the maximum (DESIGN.md §8,
// "Bit-sliced coverage").
func (g *Grid) CoverageArgmax(regions []*Region) (*Region, int) {
	out := g.NewRegion()
	nw := len(out.bits)
	np := bits.Len(uint(len(regions)))
	// planes[w*np+b] is plane b's word w; the planes of one word sit
	// together, so an add touches adjacent words. Counts never exceed
	// len(regions) < 2^np, so every carry is spent before it passes the
	// top plane.
	planes := make([]uint64, nw*np)
	j := 0
	for ; j+4 <= len(regions); j += 4 {
		r0, r1 := regions[j].bits[:nw], regions[j+1].bits[:nw]
		r2, r3 := regions[j+2].bits[:nw], regions[j+3].bits[:nw]
		for w, x0 := range r0 {
			x1, x2, x3 := r1[w], r2[w], r3[w]
			if x0|x1|x2|x3 == 0 {
				continue
			}
			i := w * np
			ones, a := csa(planes[i], x0, x1)
			ones, b := csa(ones, x2, x3)
			twos, c := csa(planes[i+1], a, b)
			planes[i], planes[i+1] = ones, twos
			ripple(planes, i+2, c)
		}
	}
	for ; j < len(regions); j++ {
		for w, x := range regions[j].bits[:nw] {
			ripple(planes, w*np, x)
		}
	}

	cand := out.bits
	for w := range cand {
		cand[w] = ^uint64(0)
	}
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
	if maxc == 0 {
		// No plane narrowed the all-ones start, which also covers the
		// bits past the last cell: clear everything.
		clear(cand)
	}
	return out, maxc
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
