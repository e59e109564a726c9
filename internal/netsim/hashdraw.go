package netsim

// Hash-seeded draws. Every structural random property of the simulation
// — a path's inflation and jitter (pairUniforms), a host's outage window
// (Outage), a proxy's or landmark's adversary membership
// (measure.hashFraction) — is a pure function of a key: the key is hashed
// with FNV-1a and the hash seeds math/rand, whose first few Float64s are
// the property. FNV's avalanche on near-identical IDs is too weak to use
// its bits directly; the generator's seeding scrambles them.
//
// Building rand.New(rand.NewSource(h)) just to read two or three values
// seeds a 607-word feedback register: thousands of LCG steps and a 5 KB
// allocation per key. SeedFloat64s computes the same values in closed
// form. rngSource.Seed fills vec[i] from three consecutive values of the
// Lehmer LCG x ← 48271·x mod (2³¹−1), starting at step 21+3i, XORed with
// the stdlib table rngCooked[i]. Draw j (j < 3) of a fresh source adds
// vec[333−j] and vec[606−j], and neither entry has been overwritten by
// an earlier draw. An LCG jumps ahead n steps by multiplying by 48271ⁿ,
// so each draw needs six modular multiplications and two entries of
// rngCooked (rand.go), shared with NewRand's Seed. Float64 divides the
// 63-bit draw by 2⁶³ and retries when the quotient rounds to 1.0; in that
// case (probability 2⁻⁵³ per draw) SeedFloat64s falls back to the real
// generator, so its results are bit-identical for every seed.

import "strconv"

// FNV-1a 64-bit parameters, as in hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash is an FNV-1a hash built one key part at a time, so a key such
// as fmt.Sprintf("%d|%s|%s", seed, a, b) hashes to the same value with
// NewKeyHash().Int(seed).Str("|").Str(a).Str("|").Str(b) and without
// formatting it.
type KeyHash uint64

// NewKeyHash returns the hash of the empty key.
func NewKeyHash() KeyHash { return fnvOffset64 }

// Str extends the hash by the bytes of s.
func (h KeyHash) Str(s string) KeyHash {
	for i := 0; i < len(s); i++ {
		h ^= KeyHash(s[i])
		h *= fnvPrime64
	}
	return h
}

// Int extends the hash by v in decimal, as %d formats it.
func (h KeyHash) Int(v int64) KeyHash {
	var buf [20]byte // len("-9223372036854775808")
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h ^= KeyHash(c)
		h *= fnvPrime64
	}
	return h
}

// Register indices a fresh source's draws read (see rand.go).
const (
	rngTapLast = rngLen - 1          // the tap index of the first draw
	rngFeed    = rngLen - rngTap - 1 // the feed index of the first draw
	// float64RetryMin is the least 63-bit draw whose float64 conversion
	// rounds up to 2⁶³, making Float64's quotient 1.0 and its retry
	// fire. Just below 2⁶³ float64s are 2¹⁰ apart, so the 512 integers
	// nearest 2⁶³ round up to it (the tie at 2⁶³−512 goes to 2⁶³'s even
	// mantissa).
	float64RetryMin = 1<<63 - 512
)

// maxSeedDraws is how many draws SeedFloat64s computes in closed form.
const maxSeedDraws = 3

// jumpFeed and jumpTap are 48271^(21+3i) mod (2³¹−1) for the vec indices
// i that draw j reads: the LCG jump from the normalized seed to the
// first of vec[i]'s three values.
var jumpFeed, jumpTap = func() (feed, tap [maxSeedDraws]uint64) {
	for j := range feed {
		feed[j] = lcgPow(lcgWarmup + 1 + 3*(rngFeed-j))
		tap[j] = lcgPow(lcgWarmup + 1 + 3*(rngTapLast-j))
	}
	return feed, tap
}()

// seedVec returns vec[i] of a source seeded at x0 (normalized), given
// jump = 48271^(21+3i).
func seedVec(x0, jump uint64, i int) int64 {
	w, _ := seedWord(mulMod(x0, jump), rngCooked[i])
	return w
}

// seedInt63s returns the first k (≤ 3) Int63 values of
// rand.NewSource(seed).
func seedInt63s(seed int64, k int) (out [maxSeedDraws]uint64) {
	x0 := lcgNorm(seed)
	for j := 0; j < k; j++ {
		sum := seedVec(x0, jumpFeed[j], rngFeed-j) + seedVec(x0, jumpTap[j], rngTapLast-j)
		out[j] = uint64(sum) & int63Mask
	}
	return out
}

// roundsToOne reports whether Float64 would retry on the 63-bit draw v.
func roundsToOne(v uint64) bool { return v >= float64RetryMin }

// SeedFloat64s returns, in out[:k], the first k (1 ≤ k ≤ 3) values
// rand.New(rand.NewSource(seed)).Float64() returns, bit for bit, without
// building the generator and without allocating.
func SeedFloat64s(seed int64, k int) (out [maxSeedDraws]float64) {
	v := seedInt63s(seed, k)
	for j := 0; j < k; j++ {
		if roundsToOne(v[j]) {
			return seedFloat64sSlow(seed, k)
		}
		out[j] = float64(v[j]) / (1 << 63)
	}
	return out
}

// seedFloat64sSlow draws from the real generator: the exact answer when
// a draw would hit Float64's retry and shift every later draw.
func seedFloat64sSlow(seed int64, k int) (out [maxSeedDraws]float64) {
	r := NewRand(seed)
	for j := 0; j < k; j++ {
		out[j] = r.Float64()
	}
	return out
}
