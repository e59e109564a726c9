package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// randDraws is how many draws each method is compared over: more than
// rngLen, so the feedback register wraps and every word Seed wrote is
// read and then rewritten.
const randDraws = 1300

// randMismatch returns the first method whose first randDraws results
// differ between NewRand(seed) and rand.New(rand.NewSource(seed)), or "".
func randMismatch(seed int64) string {
	for _, m := range []struct {
		name string
		draw func(*rand.Rand) uint64
	}{
		{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
		{"Perm", func(r *rand.Rand) uint64 {
			var h uint64
			for _, v := range r.Perm(7) {
				h = h*8 + uint64(v)
			}
			return h
		}},
	} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < randDraws; i++ {
			if a, b := m.draw(got), m.draw(want); a != b {
				return m.name
			}
		}
	}
	return ""
}

// TestNewRandMatchesStdlib: bit-identical to math/rand's own source on
// the seeds Seed normalizes specially and on 2,000 random seeds.
func TestNewRandMatchesStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lcgZero, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 2018,
	}
	src := rand.New(rand.NewSource(20181031))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(src.Uint64()))
	}
	for _, s := range seeds {
		if m := randMismatch(s); m != "" {
			t.Fatalf("seed %d: %s diverges from rand.NewSource", s, m)
		}
	}
}

// TestNewRandReseed: Rand.Seed on a NewRand stream restarts it exactly
// as on a stdlib stream, mid-register.
func TestNewRandReseed(t *testing.T) {
	got, want := NewRand(1), rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		got.Int63()
		want.Int63()
	}
	got.Seed(-77)
	want.Seed(-77)
	for i := 0; i < randDraws; i++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d after reseed: %#x, want %#x", i, a, b)
		}
	}
}

// TestNewRandAllocs: the stream costs what a stdlib stream costs, one
// source and one Rand.
func TestNewRandAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(50, func() { benchSink = NewRand(9).Float64() }); a != 2 {
		t.Errorf("NewRand: %v allocs, want 2", a)
	}
}

// FuzzNewRandMatchesStdlib: for any seed, NewRand's first randDraws
// Uint64, Int63, Float64, ExpFloat64 and Perm results equal the stdlib
// generator's.
func FuzzNewRandMatchesStdlib(f *testing.F) {
	for _, s := range []int64{0, -1, lcgMod, -lcgMod, lcgZero, math.MinInt64, 2018} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if m := randMismatch(seed); m != "" {
			t.Errorf("seed %d: %s diverges from rand.NewSource", seed, m)
		}
	})
}

// BenchmarkNewRand seeds a stream and takes one draw, the per-entity
// cost; BenchmarkNewRandStdlib is the same through rand.NewSource.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = NewRand(int64(i)).Float64()
	}
}

func BenchmarkNewRandStdlib(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = rand.New(rand.NewSource(int64(i))).Float64()
	}
}
