package grid

// Per-landmark geometry cache: one LRU entry per landmark holds its
// distance to every cell center and its quantized cap/ring masks.
//
// Every Locate in the audit pipeline carves caps and rings around the
// same few hundred landmarks, for every target. The cache amortizes
// both the great-circle math (one dot product + acos per cell, once per
// landmark) and the *geometry*: for each landmark it precomputes a
// monotone family of radius-quantized cap bitmasks (level q covers the
// cells within q·MaskStepKm), so a cap or ring of any radius reduces to
// word-wise OR/AND/AND-NOT against the two bracketing levels. The exact
// float64 distance predicate (dist ≤ r, or min < dist ≤ max for a ring)
// is applied only to cells in the thin annulus between the inner
// (certainly inside) and outer (certainly covering) bracket, and only
// to those annulus cells that can still change the op's answer: the
// constraint ops in constraint.go refine only the cells that can still
// reach the coverage maximum or the strict intersection (DESIGN.md §8,
// "Pruned refinement"). Because every refined cell sees the
// *identical* per-cell predicate, results are byte-identical to a
// plain per-cell scan of the distance slice — the masks are an
// accelerator, never an approximation. The per-cell scans live on as
// test oracles.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"activegeo/internal/geo"
)

// FieldKey identifies one landmark's cache entry: the landmark's host
// ID plus its position. The position is part of the key so a stale entry
// can never be served for a host that moved (foreign constellations
// reuse IDs across experiments), and so ID-less callers can key on
// position alone.
type FieldKey struct {
	ID       string
	Lat, Lon float64
}

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
	dist    []float32 // the landmark's distance to every cell center (shared, immutable)
	words   int
	levels  []uint64       // flattened maskLevels × words
	spans   []span         // per level, the words that can be non-zero
	zero    []uint64       // the grid's shared zero words: the empty level
	refined *atomic.Uint64 // annulus cells exactly refined; nil-safe
}

// span is the half-open word range [lo, hi) outside which a level's
// words are all zero; an all-zero level has lo = words and hi = 0, so
// the min/max of several spans is their union.
type span struct{ lo, hi int }

// newCapMasks builds the mask family from a landmark's distance slice.
// refined may be nil; when set, every op adds, once per call, the
// number of annulus cells it refined with the exact predicate.
func newCapMasks(g *Grid, dist []float32, refined *atomic.Uint64) *CapMasks {
	words := (g.total + 63) / 64
	cm := &CapMasks{
		dist:    dist,
		words:   words,
		levels:  make([]uint64, maskLevels*words),
		spans:   make([]span, maskLevels),
		zero:    g.zero,
		refined: refined,
	}
	for i, d := range dist {
		q := cm.firstLevel(float64(d))
		cm.levels[q*words+i/64] |= 1 << uint(i%64)
	}
	// Prefix-OR: each level also covers everything nearer.
	for q := range cm.spans {
		dst := cm.levels[q*words : (q+1)*words]
		if q > 0 {
			src := cm.levels[(q-1)*words : q*words]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
		if lo, hi := trim(dst, 0, words); lo < hi {
			cm.spans[q] = span{lo: lo, hi: hi}
		} else {
			cm.spans[q] = span{lo: words}
		}
	}
	return cm
}

// Distances returns the landmark's great-circle distance to every cell
// center, one float32 km per cell in cell order (Grid.DistancesFrom).
// The slice is shared and must be treated as immutable.
func (cm *CapMasks) Distances() []float32 { return cm.dist }

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

// level returns the words of level q and their span; the zero words
// and an empty span for q < 0 (empty mask). A q beyond the top level is
// clamped to the top, which covers the sphere.
func (cm *CapMasks) level(q int) ([]uint64, span) {
	if q < 0 {
		return cm.zero, span{lo: cm.words}
	}
	if q > maskLevels-1 {
		q = maskLevels - 1
	}
	return cm.levels[q*cm.words : (q+1)*cm.words], cm.spans[q]
}

// pass returns the bits of word w's cells in ann whose cached distance
// d satisfies minExclusiveKm < d ≤ maxKm: the exact per-cell predicate
// every mask op falls back to in the annulus.
func (cm *CapMasks) pass(w int, ann uint64, minExclusiveKm, maxKm float64) uint64 {
	var keep uint64
	base := w * 64
	for t := ann; t != 0; t &= t - 1 {
		b := bits.TrailingZeros64(t)
		if d := float64(cm.dist[base+b]); d <= maxKm && d > minExclusiveKm {
			keep |= 1 << uint(b)
		}
	}
	return keep
}

func (cm *CapMasks) addRefined(n uint64) {
	if cm.refined != nil && n > 0 {
		cm.refined.Add(n)
	}
}

// MaskCache is a concurrency-safe, bounded LRU cache of per-landmark
// geometry over one grid: each entry is a landmark's CapMasks, which
// holds both its distance to every cell and its mask family. All five
// algorithms draw from it, so a landmark's great-circle math and masks
// are computed once per cache, not once per (target, algorithm). Keys
// carry the host ID *and* the position, so a moved landmark can never
// be served stale geometry. The first request for a landmark fills the
// entry outside the cache lock; concurrent requests for the same
// landmark share that fill via sync.Once, and misses on different
// landmarks fill in parallel. Memory is bounded at capacity ×
// (NumCells × 4 + maskLevels × words × 8) bytes.
type MaskCache struct {
	g   *Grid
	cap int

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

// NewMaskCache builds a cache over g holding at most maxEntries
// landmarks (minimum 1).
func NewMaskCache(g *Grid, maxEntries int) *MaskCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &MaskCache{
		g:       g,
		cap:     maxEntries,
		entries: make(map[FieldKey]*maskEntry, maxEntries),
	}
}

// Masks returns the landmark's geometry — its distances and quantized
// mask family — computing and caching it on first use.
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
		dist := c.g.DistancesFrom(geo.Point{Lat: key.Lat, Lon: key.Lon})
		e.masks = newCapMasks(c.g, dist, &c.refined)
	})
	return e.masks
}

// evictLocked drops the least-recently-used entry other than keep. An
// evicted entry may still be mid-fill in another goroutine; that
// goroutine keeps its own reference and simply loses the caching.
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
	words := (c.g.total + 63) / 64
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
