package geoloc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// collapseStable is the reference Collapse: a stable sort of the
// measurements themselves by (landmark ID, RTT), then the first of each
// landmark's run.
func collapseStable(ms []Measurement) []Measurement {
	out := slices.Clone(ms)
	slices.SortStableFunc(out, func(a, b Measurement) int {
		return cmp.Or(cmp.Compare(a.LandmarkID, b.LandmarkID), cmp.Compare(a.RTTms, b.RTTms))
	})
	return slices.CompactFunc(out, func(a, b Measurement) bool { return a.LandmarkID == b.LandmarkID })
}

// collapseInput decodes two bytes per measurement: a landmark out of 12
// and an RTT out of 8, so duplicate landmarks and equal RTTs are
// common. Each measurement's Landmark records its input position, so an
// output that picks the wrong one of two equal minima differs.
func collapseInput(data []byte) []Measurement {
	ms := make([]Measurement, 0, len(data)/2)
	for k := 0; k+1 < len(data); k += 2 {
		ms = append(ms, Measurement{
			LandmarkID: netsim.HostID(fmt.Sprintf("lm-%02d", data[k]%12)),
			Landmark:   geo.Point{Lat: float64(k / 2)},
			RTTms:      float64(data[k+1] % 8),
		})
	}
	return ms
}

// FuzzCollapse: the index sort returns exactly what the stable sort
// returns and leaves its input alone, including for inputs longer than
// the stack buffer.
func FuzzCollapse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 3, 1, 2, 0, 5, 1, 2})
	f.Add([]byte{7, 0, 7, 0, 7, 0, 7, 0})
	long := make([]byte, 2*(collapseStack+37))
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		ms := collapseInput(data)
		in := slices.Clone(ms)
		got, want := Collapse(ms), collapseStable(in)
		if !slices.Equal(got, want) {
			t.Errorf("Collapse(%v) = %v, stable sort gives %v", in, got, want)
		}
		if !slices.Equal(ms, in) {
			t.Errorf("Collapse reordered its input")
		}
	})
}

// collapseVectors returns k random vectors of 30–50 measurements over
// 40 landmarks, the shape of a two-phase measurement.
func collapseVectors(k int) [][]Measurement {
	rng := rand.New(rand.NewSource(5))
	out := make([][]Measurement, k)
	for v := range out {
		for n := 30 + rng.Intn(21); n > 0; n-- {
			out[v] = append(out[v], Measurement{
				LandmarkID: netsim.HostID(fmt.Sprintf("anchor-%02d", rng.Intn(40))),
				RTTms:      float64(rng.Intn(300)),
			})
		}
	}
	return out
}

// TestCollapseAllocs: the output is Collapse's one allocation.
func TestCollapseAllocs(t *testing.T) {
	for _, ms := range collapseVectors(8) {
		if a := testing.AllocsPerRun(20, func() { _ = Collapse(ms) }); a != 1 {
			t.Fatalf("Collapse of %d measurements: %v allocs, want 1", len(ms), a)
		}
	}
}

func BenchmarkCollapse(b *testing.B) {
	vs := collapseVectors(64)
	for _, impl := range []struct {
		name string
		f    func([]Measurement) []Measurement
	}{{"index", Collapse}, {"stable", collapseStable}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = impl.f(vs[i%len(vs)])
			}
		})
	}
}
