package grid

// Tests for the geometry kernel: the precomputed band table, the
// dot-product cap membership path and the mask-based cap/ring ops
// against the haversine predicates, the distance-slice oracle, and the
// expanding-band nearest-cell search.

import (
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// bandOfBinarySearch is the pre-kernel band lookup, kept here as the
// oracle for the O(1) table.
func bandOfBinarySearch(g *Grid, i int) int {
	lo, hi := 0, g.bands-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.bandOffset[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func TestBandTableMatchesBinarySearch(t *testing.T) {
	for _, res := range []float64{5.0, 1.5, 1.0} {
		g := New(res)
		for i := 0; i < g.NumCells(); i++ {
			if got, want := g.bandOf(i), bandOfBinarySearch(g, i); got != want {
				t.Fatalf("res %v cell %d: band %d, want %d", res, i, got, want)
			}
		}
	}
}

func TestUnitVecMatchesCenter(t *testing.T) {
	g := New(2.0)
	for i := 0; i < g.NumCells(); i += 7 {
		want := geo.UnitVec(g.Center(i))
		if g.UnitVec(i) != want {
			t.Fatalf("cell %d: unit vector not derived from center", i)
		}
	}
}

func randomCap(rng *rand.Rand) geo.Cap {
	return geo.Cap{
		Center: geo.Point{
			Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
			Lon: 360*rng.Float64() - 180,
		},
		RadiusKm: rng.Float64() * geo.HalfEquatorKm,
	}
}

// TestAddCapMatchesReference compares the kernel AddCap against the
// haversine reference over random caps, including polar and hemispheric
// ones. The two paths enumerate identical candidates and differ only in
// the membership predicate, which agrees except for exact-boundary ulp
// coincidences (never hit with continuous random radii).
func TestAddCapMatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(21))
	for k := 0; k < 200; k++ {
		c := randomCap(rng)
		a, b := g.NewRegion(), g.NewRegion()
		a.AddCap(c)
		b.AddCapReference(c)
		if diff := symmetricDiff(a, b); diff != 0 {
			t.Fatalf("cap %+v: %d cells differ", c, diff)
		}
	}
}

// TestIntersectCapRingMatchReference checks the production disk and
// ring constraints — quantized masks over the float32 distance field —
// against the haversine predicates of geo.Cap and geo.Ring. Float32
// distances may flip a cell within ≈1 m of a boundary, and the ring's
// inner bound is exclusive on one side only; random radii never land
// on either.
func TestIntersectCapRingMatchReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 100; k++ {
		c := randomCap(rng)
		cm := newCapMasks(g, g.DistancesFrom(c.Center), nil)
		// The center-cell rule is the constraint's own; compare the
		// predicate on every other cell.
		center := g.CellAt(c.Center)
		a := g.Intersect([]Constraint{Disk(cm, center, c.RadiusKm)})
		b := g.FullRegion()
		b.Filter(c.Contains)
		b.Add(center)
		if diff := symmetricDiff(a, b); diff != 0 {
			t.Fatalf("cap %+v: %d cells differ", c, diff)
		}
		ring := geo.Ring{
			Center: c.Center,
			MinKm:  rng.Float64() * 8000,
			MaxKm:  rng.Float64() * geo.HalfEquatorKm,
		}
		a = g.Intersect([]Constraint{Ring(cm, center, ring.MinKm, ring.MaxKm, false)})
		b = g.FullRegion()
		b.Filter(ring.Contains)
		b.Remove(center)
		if diff := symmetricDiff(a, b); diff != 0 {
			t.Fatalf("ring %+v: %d cells differ", ring, diff)
		}
	}
}

// TestAddWithinKmMatchesAddCap checks the per-cell distance-slice
// oracle against AddCap. Distances are float32, so cells within half a
// float32 ulp of the boundary (≈1 m at world scale) may differ; random
// radii never land there.
func TestAddWithinKmMatchesAddCap(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 100; k++ {
		c := randomCap(rng)
		dist := g.DistancesFrom(c.Center)
		a, b := g.NewRegion(), g.NewRegion()
		addWithinKm(a, dist, c.RadiusKm, g.CellAt(c.Center))
		b.AddCap(c)
		if diff := symmetricDiff(a, b); diff != 0 {
			t.Fatalf("cap %+v: %d cells differ between addWithinKm and AddCap", c, diff)
		}
	}
}

func TestDistanceToPointKmMatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(24))
	for k := 0; k < 120; k++ {
		r := g.NewRegion()
		// Random union of a few caps, sometimes empty.
		for n := rng.Intn(3); n > 0; n-- {
			c := randomCap(rng)
			c.RadiusKm = rng.Float64() * 3000
			r.AddCap(c)
		}
		p := geo.Point{
			Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
			Lon: 360*rng.Float64() - 180,
		}
		got := r.DistanceToPointKm(p)
		want := distanceToPointKmReference(r, p)
		if math.IsInf(want, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("empty region: got %f, want +Inf", got)
			}
			continue
		}
		if diff := math.Abs(got - want); diff > 1e-6+1e-9*want {
			t.Fatalf("distance %f vs reference %f (diff %g)", got, want, diff)
		}
	}
}

func TestEachInRange(t *testing.T) {
	g := New(5.0)
	r := g.NewRegion()
	rng := rand.New(rand.NewSource(25))
	for k := 0; k < 300; k++ {
		r.Add(rng.Intn(g.NumCells()))
	}
	for k := 0; k < 200; k++ {
		lo := rng.Intn(g.NumCells())
		hi := lo + rng.Intn(200)
		var got []int
		r.eachInRange(lo, hi, func(i int) { got = append(got, i) })
		var want []int
		r.Each(func(i int) {
			if i >= lo && i < hi {
				want = append(want, i)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d cells, want %d", lo, hi, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("[%d,%d): element %d is %d, want %d", lo, hi, j, got[j], want[j])
			}
		}
	}
}

func symmetricDiff(a, b *Region) int {
	d := a.Clone()
	d.SubtractWith(b)
	n := d.Count()
	d = b.Clone()
	d.SubtractWith(a)
	return n + d.Count()
}
