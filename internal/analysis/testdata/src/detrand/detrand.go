// Package detrand holds detrand analyzer fixtures. The global-source
// and wall-clock cases are distilled from the pre-PR 1 audit engine,
// whose shared order-dependent randomness made every verdict depend on
// fleet iteration order; the hard-coded-seed case is the regression
// the seed-scope rule guards internal/netsim, internal/measure and
// internal/experiments against.
package detrand

import (
	"math/rand"
	"time"

	"activegeo/internal/netsim"
)

func globalDraw(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

func wallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.New seeded from time.Now" "rand.NewSource seeded from time.Now"
}

func hardCodedSeed() *rand.Rand {
	return rand.New(rand.NewSource(7)) // want "hard-coded seed"
}

// seedFromConfig is the approved shape: the stream is a pure function
// of a seed that arrives from the run's configuration.
func seedFromConfig(seed int64, id string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

// Fault-injection shapes (DESIGN.md §10). A per-probe loss draw from
// the global source would tie which probes vanish to goroutine
// interleaving instead of the caller's per-entity stream — exactly
// the bug the faults-at-any-concurrency determinism tests guard.
func lossDrawGlobal(p float64) bool {
	return rand.Float64() < p // want "global math/rand.Float64"
}

func backoffJitterGlobal(maxMs int) int {
	return rand.Intn(maxMs) // want "global math/rand.Intn"
}

// A private hard-seeded stream for outage placement would make every
// run's outages identical regardless of the configured network seed.
func outageStreamHardSeed() *rand.Rand {
	return rand.New(rand.NewSource(86)) // want "hard-coded seed"
}

// lossDrawFromStream is the approved per-event shape: the fault draw
// consumes the caller's derived stream, so worker order cannot
// reorder it.
func lossDrawFromStream(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}

// outageWindowStart is the approved structural shape: which hosts go
// dark, and when, is a pure hash of (network seed, host ID) — no RNG
// at all, so every worker computes the same answer without locks.
func outageWindowStart(seed int64, id string, horizonMs uint64) uint64 {
	h := uint64(14695981039346656037) ^ uint64(seed)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h % horizonMs
}

// Adversary shapes (DESIGN.md §14). A lying proxy's forged padding
// must be a pure function of (plan seed, proxy ID, landmark ID);
// drawing it from the global source would make which measurements are
// forged depend on worker interleaving, so the detection sweep could
// never be scored deterministically.
func forgedPaddingGlobal(maxMs int) int {
	return rand.Intn(maxMs) // want "global math/rand.Intn"
}

// Selecting which fleet members lie by a hard-seeded private stream
// would pin the liar set across every plan seed — the control point
// and the attack points would corrupt each other.
func liarSelectionHardSeed(n int) []int {
	rng := rand.New(rand.NewSource(13)) // want "hard-coded seed"
	return rng.Perm(n)
}

// forgedPaddingFromPlan is the approved shape: the adversary draws
// from a stream derived from the plan's own seed and the entity pair,
// so the same plan forges the same bytes at any concurrency.
func forgedPaddingFromPlan(rng *rand.Rand, aggressiveness float64, maxMs float64) float64 {
	return aggressiveness * maxMs * rng.Float64()
}

// netsim.NewRand is the per-entity stream constructor: the same
// generator as rand.New(rand.NewSource(seed)), seeded faster. Its seed
// obeys the same two rules as rand.NewSource's.
func wallClockStream() *rand.Rand {
	return netsim.NewRand(time.Now().UnixNano()) // want "netsim.NewRand seeded from time.Now"
}

func hardCodedStream() *rand.Rand {
	return netsim.NewRand(2018) // want "hard-coded seed"
}

// A named constant is as hard-coded as a literal.
const fixedStreamSeed = 99

func namedConstantStream() *rand.Rand {
	return netsim.NewRand(fixedStreamSeed) // want "hard-coded seed"
}

// streamFromConfig is the approved shape for the constructor too.
func streamFromConfig(seed int64, id netsim.HostID) *rand.Rand {
	return netsim.NewRand(seed ^ int64(netsim.HashID(id)))
}
