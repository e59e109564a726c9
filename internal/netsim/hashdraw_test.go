package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// checkSeedDraws compares the closed form with a real generator seeded
// at seed, for every draw count: the raw 63-bit draws and the Float64s.
func checkSeedDraws(t *testing.T, seed int64) {
	t.Helper()
	src := rand.NewSource(seed).(rand.Source64)
	r := rand.New(rand.NewSource(seed))
	var raw [maxSeedDraws]uint64
	var want [maxSeedDraws]float64
	for j := range want {
		raw[j] = uint64(src.Int63())
		want[j] = r.Float64()
	}
	for k := 1; k <= maxSeedDraws; k++ {
		v := seedInt63s(seed, k)
		got := SeedFloat64s(seed, k)
		for j := 0; j < maxSeedDraws; j++ {
			wantRaw, wantF := raw[j], math.Float64bits(want[j])
			if j >= k {
				wantRaw, wantF = 0, 0
			}
			if v[j] != wantRaw {
				t.Fatalf("seed %d, k=%d: raw draw %d = %#x, rand.NewSource gives %#x", seed, k, j, v[j], wantRaw)
			}
			if math.Float64bits(got[j]) != wantF {
				t.Fatalf("seed %d, k=%d: draw %d = %v, rand.New gives %v", seed, k, j, got[j], want[j])
			}
		}
	}
}

// TestSeedFloat64sEdgeSeeds covers the seeds rngSource.Seed normalizes
// specially: zero and the multiples of 2³¹−1 (replaced by 89482311),
// negatives, and the int64 extremes.
func TestSeedFloat64sEdgeSeeds(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lcgZero, -lcgZero, lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod,
		lcgMod - 1, lcgMod + 1, -lcgMod + 1, lcgZero + lcgMod,
		math.MaxInt64 / lcgMod * lcgMod, math.MinInt64 / lcgMod * lcgMod,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
	}
	for _, s := range seeds {
		checkSeedDraws(t, s)
	}
}

// TestSeedFloat64sRandomSeeds: bit-identical to math/rand on 10⁵ random
// seeds, for 1, 2 and 3 draws.
func TestSeedFloat64sRandomSeeds(t *testing.T) {
	src := rand.New(rand.NewSource(20181031))
	for i := 0; i < 100_000; i++ {
		checkSeedDraws(t, int64(src.Uint64()))
	}
}

// TestRoundsToOneThreshold: the retry predicate flips exactly where
// float64(v)/2⁶³ starts rounding to 1.0, the quotient Float64 rejects.
func TestRoundsToOneThreshold(t *testing.T) {
	for _, v := range []uint64{
		0, 1, 1 << 52, 1 << 62, float64RetryMin - 1024, float64RetryMin - 513,
		float64RetryMin - 1, float64RetryMin, float64RetryMin + 1, int63Mask,
	} {
		wantRetry := !(float64(v)/(1<<63) < 1)
		if got := roundsToOne(v); got != wantRetry {
			t.Errorf("roundsToOne(%#x) = %v, float64 quotient says %v", v, got, wantRetry)
		}
	}
	if roundsToOne(float64RetryMin-1) || !roundsToOne(float64RetryMin) {
		t.Errorf("threshold %#x is not the first retrying draw", uint64(float64RetryMin))
	}
}

// TestSeedFloat64sSlowMatchesMathRand: the fallback is the real
// generator, draw for draw.
func TestSeedFloat64sSlowMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 7, -12345, math.MaxInt64} {
		r := rand.New(rand.NewSource(seed))
		got := seedFloat64sSlow(seed, maxSeedDraws)
		for j := range got {
			if want := r.Float64(); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Errorf("seed %d draw %d: %v, want %v", seed, j, got[j], want)
			}
		}
	}
}

// TestKeyHashMatchesFormattedFNV: the incremental hash equals FNV-1a over
// the formatted key, for the key shapes the simulator and the adversary
// plan use.
func TestKeyHashMatchesFormattedFNV(t *testing.T) {
	fnvOf := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, seed := range []int64{0, 1, -1, 2018, math.MaxInt64, math.MinInt64} {
		for _, id := range []string{"", "fra", "vpn-17.example|x", "ü-host"} {
			if got, want := uint64(NewKeyHash().Int(seed).Str("|").Str(id).Str("|").Str("b")), fnvOf(fmt.Sprintf("%d|%s|%s", seed, id, "b")); got != want {
				t.Errorf("pair key (%d, %q): %#x, want %#x", seed, id, got, want)
			}
			if got, want := uint64(NewKeyHash().Str("outage|").Int(seed).Str("|").Str(id)), fnvOf(fmt.Sprintf("outage|%d|%s", seed, id)); got != want {
				t.Errorf("outage key (%d, %q): %#x, want %#x", seed, id, got, want)
			}
			if got, want := HashID(HostID(id)), fnvOf(id); got != want {
				t.Errorf("HashID(%q) = %#x, want %#x", id, got, want)
			}
		}
	}
}

func BenchmarkSeedFloat64s(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SeedFloat64s(int64(i), 2)[1]
	}
	benchSink = sink
}
