package grid

// Per-landmark quantized cap/ring mask cache.
//
// Every Locate in the audit pipeline carves caps and rings around the
// same few hundred landmarks, for every target. The DistanceField
// already amortizes the great-circle math per landmark; this file
// amortizes the *geometry* as well: for each landmark it precomputes a
// monotone family of radius-quantized cap bitmasks (level q covers the
// cells within q·MaskStepKm), so a cap or ring of any radius reduces to
// word-wise OR/AND/AND-NOT against the two bracketing levels, with the
// exact float64 distance predicate applied only in the thin annulus
// between the inner (certainly inside) and outer (certainly covering)
// bracket. Because the annulus refinement applies the *identical*
// per-cell predicate (dist ≤ r, or min < dist ≤ max for a ring),
// results are byte-identical to a plain per-cell scan of the distance
// slice — the masks are an accelerator, never an approximation. The
// per-cell scans live on as test oracles (DESIGN.md §8).

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"activegeo/internal/geo"
)

// MaskStepKm is the quantization step of the cap-mask family. A 400 km
// step keeps the family small (⌈π·R/step⌉+2 ≈ 53 levels, ≈270 KB per
// landmark at 1° resolution) while the annulus a bracket leaves for
// exact refinement stays under ~2 % of the sphere.
const MaskStepKm = 400.0

// maskLevels is the number of levels in every mask family: enough that
// the top one certainly covers the antipode (max sphere distance π·R),
// so every radius has an outer bracket.
var maskLevels = int(math.Floor(math.Pi*geo.EarthRadiusKm/MaskStepKm)) + 3

// CapMasks is the quantized cap-mask family of one landmark: maskLevels
// bitmasks over the grid, where level q contains exactly the cells
// whose cached distance is ≤ q·MaskStepKm. The family is monotone
// (level q ⊆ level q+1) and the top level covers the whole sphere, so
// for any radius r the bracketing levels lo = ⌊r/step⌋ and hi = lo+1
// satisfy the bracket invariant
//
//	mask[lo] ⊆ {cells with dist ≤ r} ⊆ mask[hi]
//
// and only the annulus mask[hi] &^ mask[lo] needs the per-cell float64
// test. CapMasks is immutable after construction and safe for
// concurrent use.
type CapMasks struct {
	dist    []float32 // the landmark's cached distance field (shared, immutable)
	words   int
	levels  []uint64       // flattened maskLevels × words
	refined *atomic.Uint64 // annulus cells exactly refined; nil-safe
}

// newCapMasks builds the mask family from a landmark's distance slice.
// refined may be nil; when set, every op adds the number of annulus
// cells it refined with the exact predicate.
func newCapMasks(g *Grid, dist []float32, refined *atomic.Uint64) *CapMasks {
	words := (g.total + 63) / 64
	cm := &CapMasks{
		dist:    dist,
		words:   words,
		levels:  make([]uint64, maskLevels*words),
		refined: refined,
	}
	for i, d := range dist {
		q := cm.firstLevel(float64(d))
		cm.levels[q*words+i/64] |= 1 << uint(i%64)
	}
	// Prefix-OR: each level also covers everything nearer.
	for q := 1; q < maskLevels; q++ {
		dst := cm.levels[q*words : (q+1)*words]
		src := cm.levels[(q-1)*words : q*words]
		for w := range dst {
			dst[w] |= src[w]
		}
	}
	return cm
}

// radiusOf returns the radius of quantization level q.
func (cm *CapMasks) radiusOf(q int) float64 { return float64(q) * MaskStepKm }

// firstLevel returns the smallest level q with d ≤ radiusOf(q). The
// initial guess comes from a division; the fix-up loops re-establish
// the invariant with direct one-sided comparisons, so division rounding
// at a quantization boundary can never misplace a cell.
func (cm *CapMasks) firstLevel(d float64) int {
	q := int(d / MaskStepKm)
	if q < 0 {
		q = 0
	}
	if q > maskLevels-1 {
		q = maskLevels - 1
	}
	for q > 0 && d <= cm.radiusOf(q-1) {
		q--
	}
	for q < maskLevels-1 && d > cm.radiusOf(q) {
		q++
	}
	return q
}

// bracket returns the bracketing level indices (lo, hi) for radius
// rKm: lo is the largest level with radiusOf(lo) ≤ rKm (−1 when rKm is
// negative, i.e. no level is certainly inside), and hi = lo+1 is the
// smallest level with radiusOf(hi) > rKm (clamped by callers to the
// top level, which covers the whole sphere). All boundary decisions
// use one-sided ≤/> comparisons only.
func (cm *CapMasks) bracket(rKm float64) (lo, hi int) {
	if math.IsNaN(rKm) || rKm < 0 {
		return -1, 0
	}
	if math.IsInf(rKm, 1) {
		return maskLevels - 1, maskLevels
	}
	q := int(rKm / MaskStepKm)
	if q < 0 {
		q = 0
	}
	if q > maskLevels-1 {
		q = maskLevels - 1
	}
	for q > 0 && cm.radiusOf(q) > rKm {
		q--
	}
	for q < maskLevels-1 && cm.radiusOf(q+1) <= rKm {
		q++
	}
	if cm.radiusOf(q) > rKm {
		// Only reachable at q == 0 when 0 < rKm fails, i.e. never for
		// rKm ≥ 0; kept as a defensive floor for subnormal surprises.
		return -1, 0
	}
	return q, q + 1
}

// level returns the words of level q; nil for q < 0 (empty mask). A q
// beyond the top level is clamped to the top, which covers the sphere.
func (cm *CapMasks) level(q int) []uint64 {
	if q < 0 {
		return nil
	}
	if q > maskLevels-1 {
		q = maskLevels - 1
	}
	return cm.levels[q*cm.words : (q+1)*cm.words]
}

func (cm *CapMasks) addRefined(n uint64) {
	if cm.refined != nil && n > 0 {
		cm.refined.Add(n)
	}
}

// FillWithinKm ORs into dst exactly the cells whose cached distance is
// ≤ maxKm — the per-cell scan of the distance slice, without the center
// cell (callers add that separately, preserving AddCap's center rule).
// Inner-bracket words are ORed wholesale; only annulus bits see the
// exact float64 predicate. A NaN maxKm is outside the contract: no
// caller can produce one, and the result need not match the scan.
func (cm *CapMasks) FillWithinKm(dst *Region, maxKm float64) {
	lo, hi := cm.bracket(maxKm)
	inner := cm.level(lo)
	outer := cm.level(hi)
	var refined uint64
	for w := 0; w < cm.words; w++ {
		var in uint64
		if inner != nil {
			in = inner[w]
		}
		keep := in
		if ann := outer[w] &^ in; ann != 0 {
			refined += uint64(bits.OnesCount64(ann))
			base := w * 64
			for t := ann; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				if float64(cm.dist[base+b]) <= maxKm {
					keep |= 1 << uint(b)
				}
			}
		}
		if keep != 0 {
			dst.bits[w] |= keep
		}
	}
	cm.addRefined(refined)
}

// IntersectWithinKm removes from r every cell whose cached distance
// exceeds maxKm — byte-identical to a bit-by-bit walk removing each
// cell with dist > maxKm. Cells inside the inner bracket are kept and
// cells outside the outer bracket dropped word-wise; only set bits in
// the annulus see the exact predicate. A NaN maxKm is outside the
// contract: the masks empty the region where the per-cell rule would
// keep every cell.
func (cm *CapMasks) IntersectWithinKm(r *Region, maxKm float64) {
	lo, hi := cm.bracket(maxKm)
	inner := cm.level(lo)
	outer := cm.level(hi)
	var refined uint64
	for w, word := range r.bits {
		if word == 0 {
			continue
		}
		var in uint64
		if inner != nil {
			in = inner[w]
		}
		keep := word & in
		if ann := word & outer[w] &^ in; ann != 0 {
			refined += uint64(bits.OnesCount64(ann))
			base := w * 64
			for t := ann; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				if float64(cm.dist[base+b]) <= maxKm {
					keep |= 1 << uint(b)
				}
			}
		}
		r.bits[w] = keep
	}
	cm.addRefined(refined)
}

// FillRingKm ORs into dst exactly the cells with
// minExclusiveKm < dist ≤ maxKm — byte-identical to the per-cell ring
// loop over the same distance slice. minExclusiveKm may be −Inf (no
// inner bound). Cells certainly in the ring (inside the outer bound's
// inner bracket and outside the inner bound's outer bracket) are ORed
// word-wise; only candidate bits near either boundary see the exact
// two-sided predicate. NaN bounds are outside the contract: the masks
// may keep cells the per-cell rule rejects.
func (cm *CapMasks) FillRingKm(dst *Region, minExclusiveKm, maxKm float64) {
	oLo, oHi := cm.bracket(maxKm)
	iLo, iHi := cm.bracket(minExclusiveKm)
	outSure := cm.level(oLo)  // certainly ≤ maxKm; nil if none
	outAll := cm.level(oHi)   // everything possibly ≤ maxKm
	innDrop := cm.level(iLo)  // certainly ≤ minExclusiveKm (excluded); nil if none
	innMaybe := cm.level(iHi) // possibly ≤ minExclusiveKm
	var refined uint64
	for w := 0; w < cm.words; w++ {
		var os, id, im uint64
		if outSure != nil {
			os = outSure[w]
		}
		if innDrop != nil {
			id = innDrop[w]
		}
		if innMaybe != nil {
			im = innMaybe[w]
		}
		cand := outAll[w] &^ id // possibly in the ring
		keep := os &^ im        // certainly in the ring (⊆ cand)
		if ann := cand &^ keep; ann != 0 {
			refined += uint64(bits.OnesCount64(ann))
			base := w * 64
			for t := ann; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				dd := float64(cm.dist[base+b])
				if dd <= maxKm && dd > minExclusiveKm {
					keep |= 1 << uint(b)
				}
			}
		}
		if keep != 0 {
			dst.bits[w] |= keep
		}
	}
	cm.addRefined(refined)
}

// MaskCache is a concurrency-safe, bounded LRU cache of per-landmark
// CapMasks, keyed like the DistanceField by host ID *and* position so
// a moved landmark can never be served stale geometry. The first
// request for a landmark pulls its distance slice from the underlying
// DistanceField (warming that cache too) and builds the mask family
// outside the cache lock; concurrent requests for the same landmark
// share a single build via sync.Once. Memory is bounded at
// capacity × maskLevels × words × 8 bytes.
type MaskCache struct {
	field *DistanceField
	cap   int

	mu      sync.Mutex
	entries map[FieldKey]*maskEntry
	clock   uint64

	hits, misses, evictions uint64
	refined                 atomic.Uint64
}

type maskEntry struct {
	once    sync.Once
	masks   *CapMasks
	lastUse uint64 // guarded by MaskCache.mu
}

// NewMaskCache builds a mask cache over the field's grid holding at
// most maxEntries landmark families (minimum 1).
func NewMaskCache(field *DistanceField, maxEntries int) *MaskCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &MaskCache{
		field:   field,
		cap:     maxEntries,
		entries: make(map[FieldKey]*maskEntry, maxEntries),
	}
}

// Field returns the distance-field cache the masks are built from.
func (c *MaskCache) Field() *DistanceField { return c.field }

// Masks returns the landmark's quantized mask family, building and
// caching it on first use. The build runs outside the cache lock, so
// misses on different landmarks build in parallel while concurrent
// requests for the same landmark share one build.
func (c *MaskCache) Masks(key FieldKey) *CapMasks {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &maskEntry{}
		c.entries[key] = e
		if len(c.entries) > c.cap {
			c.evictLocked(e)
		}
	}
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()

	e.once.Do(func() {
		dist := c.field.Distances(key)
		e.masks = newCapMasks(c.field.Grid(), dist, &c.refined)
	})
	return e.masks
}

// evictLocked drops the least-recently-used entry other than keep.
func (c *MaskCache) evictLocked(keep *maskEntry) {
	var victim FieldKey
	var victimEntry *maskEntry
	for k, e := range c.entries {
		if e == keep {
			continue
		}
		if victimEntry == nil || e.lastUse < victimEntry.lastUse {
			victim, victimEntry = k, e
		}
	}
	if victimEntry != nil {
		delete(c.entries, victim)
		c.evictions++
	}
}

// Invalidate evicts every cached mask family whose key carries the
// given host ID (at any position) and returns how many were dropped.
// Landmark churn — decommissioned anchors, a host re-provisioned at a
// new position — calls this alongside DistanceField.Invalidate so no
// stale geometry outlives the fleet change.
func (c *MaskCache) Invalidate(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.entries {
		if k.ID == id {
			delete(c.entries, k)
			n++
		}
	}
	c.evictions += uint64(n)
	return n
}

// MaskStats reports mask-cache effectiveness counters. RefinedCells is
// the cumulative number of annulus cells the word-wise ops fell back to
// the exact float64 predicate for — the cost the quantization did not
// elide.
type MaskStats struct {
	Entries      int
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	RefinedCells uint64
	Levels       int
	BytesPerMask int
}

// Stats returns a snapshot of the cache counters.
func (c *MaskCache) Stats() MaskStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Levels and bytes-per-mask are a pure function of the grid, so
	// they are derived here rather than read off an entry: an entry's
	// masks pointer is written inside its sync.Once and must not be
	// inspected without going through Do.
	words := (c.field.Grid().total + 63) / 64
	return MaskStats{
		Entries:      len(c.entries),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		RefinedCells: c.refined.Load(),
		Levels:       maskLevels,
		BytesPerMask: maskLevels * words * 8,
	}
}
