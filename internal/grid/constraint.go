package grid

// Disk and ring constraints: a landmark's cap or ring kept as its two
// bracketing mask levels instead of a materialized region, so the
// coverage argmax (coverage.go), the strict intersection and the
// overlap test read mask words directly and refine only the annulus
// cells that can still change their answer (DESIGN.md §8).

import (
	"math"
	"math/bits"
)

// Constraint is one landmark's disk or ring over its quantized mask
// family. Its cells are those whose cached distance d satisfies
// minExclusiveKm < d ≤ maxKm (none when maxKm ≤ 0), with the
// landmark's own cell then added or removed by the center-cell rule:
// AddCap's rule for a disk, and for a ring the rule of its outer cap
// or, when an inner cap is subtracted, of the inner cap.
//
// Per word, the bracketing levels give two words, sure ⊆ cells ⊆
// maybe. The center bit is kept apart from both: the rule alone sets
// it. Only the annulus, maybe &^ sure, needs the exact per-cell
// predicate. A Constraint is a small value; it reads its CapMasks and
// never writes them.
type Constraint struct {
	cm           *CapMasks
	minEx, maxKm float64
	cw           int    // word of the landmark's own cell
	cb           uint64 // that cell's bit in word cw
	centerIn     bool   // the center-cell rule: add (true) or remove
	sure, maybe  levelDiff
}

// levelDiff is the difference out &^ in of two mask levels, with out's
// span: the difference is zero outside it. A nil in subtracts nothing.
type levelDiff struct {
	out, in []uint64
	span
}

func (p *levelDiff) word(w int) uint64 {
	if p.in == nil {
		return p.out[w]
	}
	return p.out[w] &^ p.in[w]
}

// Disk is the cap of radius maxKm around the masks' landmark with
// AddCap's center rule: every cell within maxKm, plus center, the
// landmark's own cell (alone when maxKm ≤ 0).
func Disk(cm *CapMasks, center int, maxKm float64) Constraint {
	return Ring(cm, center, math.Inf(-1), maxKm, true)
}

// Ring is the cells with minExclusiveKm < dist ≤ maxKm (none when
// maxKm ≤ 0), then center, the landmark's own cell, added when
// centerIn holds and removed when it does not. minExclusiveKm may be
// −Inf. NaN bounds are outside the contract.
func Ring(cm *CapMasks, center int, minExclusiveKm, maxKm float64, centerIn bool) Constraint {
	empty := levelDiff{out: cm.zero, span: span{lo: cm.words}}
	c := Constraint{
		cm: cm, minEx: minExclusiveKm, maxKm: maxKm,
		cw: center / 64, cb: 1 << uint(center%64), centerIn: centerIn,
		sure: empty, maybe: empty,
	}
	if !(maxKm > 0) {
		return c
	}
	lo, hi := cm.bracket(maxKm)
	c.sure.out, c.sure.span = cm.level(lo)
	c.maybe.out, c.maybe.span = cm.level(hi)
	if minExclusiveKm >= 0 {
		// Distances are never negative, so a negative inner bound
		// excludes nothing. Otherwise the cells certainly within it
		// leave maybe, and the cells possibly within it leave sure.
		lo, hi := cm.bracket(minExclusiveKm)
		c.maybe.in, _ = cm.level(lo)
		c.sure.in, _ = cm.level(hi)
	}
	return c
}

// rest masks the center bit out of word w.
func (c *Constraint) rest(w int) uint64 {
	if w == c.cw {
		return ^c.cb
	}
	return ^uint64(0)
}

// maybeWord is word w of the cells that may be in the constraint, with
// the center bit set by the rule.
func (c *Constraint) maybeWord(w int) uint64 {
	x := c.maybe.word(w)
	if w == c.cw {
		x &^= c.cb
		if c.centerIn {
			x |= c.cb
		}
	}
	return x
}

// annulus is word w of the cells the exact predicate decides: maybe
// but not sure, and never the center.
func (c *Constraint) annulus(w int) uint64 {
	return (c.maybe.word(w) &^ c.sure.word(w)) & c.rest(w)
}

// words returns word w's sure bits and its annulus bits.
func (c *Constraint) words(w int) (sure, ann uint64) {
	sure = c.sure.word(w)
	if ann = c.maybe.word(w) &^ sure; ann != 0 && w == c.cw {
		ann &^= c.cb
	}
	return sure, ann
}

// refine returns the bits of ann, a subset of annulus(w), that pass the
// exact predicate.
func (c *Constraint) refine(w int, ann uint64) uint64 {
	return c.cm.pass(w, ann, c.minEx, c.maxKm)
}

// Intersects reports whether the constraint shares a cell with r. The
// center cell or any sure word settles it; only when neither does are
// the annulus cells inside r refined, and only until one passes.
func (c *Constraint) Intersects(r *Region) bool {
	if c.centerIn && r.bits[c.cw]&c.cb != 0 {
		return true
	}
	for w := c.sure.lo; w < c.sure.hi; w++ {
		if r.bits[w]&c.sure.word(w)&c.rest(w) != 0 {
			return true
		}
	}
	var refined uint64
	hit := false
	for w := c.maybe.lo; w < c.maybe.hi && !hit; w++ {
		if ann := r.bits[w] & c.annulus(w); ann != 0 {
			refined += uint64(bits.OnesCount64(ann))
			hit = c.refine(w, ann) != 0
		}
	}
	c.cm.addRefined(refined)
	return hit
}

// Intersect returns the cells in every constraint: the strict
// multilateration CoverageArgmax tries first. The maybe words of all
// constraints are ANDed first; then each constraint refines only its
// annulus cells that survived the AND and every refinement before it.
// No constraints give an empty region.
func (g *Grid) Intersect(cs []Constraint) *Region {
	out := g.NewRegion()
	if len(cs) == 0 {
		return out
	}
	acc := out.bits
	for w := range acc {
		acc[w] = ^uint64(0)
	}
	// [lo, hi) holds every non-zero word of acc.
	lo, hi := 0, len(acc)
	for i := range cs {
		c := &cs[i]
		for w := lo; w < hi; w++ {
			acc[w] &= c.maybeWord(w)
		}
		lo, hi = trim(acc, lo, hi)
	}
	var refined uint64
	for i := range cs {
		c := &cs[i]
		for w := max(lo, c.maybe.lo); w < min(hi, c.maybe.hi); w++ {
			if ann := acc[w] & c.annulus(w); ann != 0 {
				refined += uint64(bits.OnesCount64(ann))
				acc[w] &^= ann &^ c.refine(w, ann)
			}
		}
	}
	cs[0].cm.addRefined(refined)
	return out
}

// trim narrows [lo, hi) past the zero words at either end of words.
func trim(words []uint64, lo, hi int) (int, int) {
	for lo < hi && words[lo] == 0 {
		lo++
	}
	for hi > lo && words[hi-1] == 0 {
		hi--
	}
	return lo, hi
}
