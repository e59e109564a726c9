package grid

// Tests for the distance fields the MaskCache serves: each entry's
// CapMasks.Distances against the haversine, the shared slice per key,
// the position-in-key rule, LRU eviction order, concurrent fills under
// eviction pressure, and ID-wide invalidation.

import (
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/geo"
)

func TestDistanceFieldValues(t *testing.T) {
	g := New(3.0)
	c := NewMaskCache(g, 8)
	p := geo.Point{Lat: 48.85, Lon: 2.35}
	dist := c.Masks(FieldKey{ID: "paris", Lat: p.Lat, Lon: p.Lon}).Distances()
	if len(dist) != g.NumCells() {
		t.Fatalf("len %d, want %d", len(dist), g.NumCells())
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 500; k++ {
		i := rng.Intn(g.NumCells())
		want := geo.DistanceKm(p, g.Center(i))
		if diff := float64(dist[i]) - want; diff > 0.05 || diff < -0.05 {
			t.Fatalf("cell %d: field %.4f vs haversine %.4f", i, dist[i], want)
		}
	}
}

func TestDistanceFieldHitMiss(t *testing.T) {
	g := New(5.0)
	c := NewMaskCache(g, 4)
	k1 := FieldKey{ID: "a", Lat: 10, Lon: 20}
	k2 := FieldKey{ID: "b", Lat: -30, Lon: 40}

	d1 := c.Masks(k1).Distances()
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first fill: %+v", s)
	}
	if d1b := c.Masks(k1).Distances(); &d1b[0] != &d1[0] {
		t.Error("second request did not return the shared slice")
	}
	c.Masks(k2)
	if s := c.Stats(); s.Misses != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Fatalf("after second landmark: %+v", s)
	}
	// Same ID at a different position is a different field.
	c.Masks(FieldKey{ID: "a", Lat: 11, Lon: 20})
	if s := c.Stats(); s.Misses != 3 {
		t.Fatalf("moved landmark should miss: %+v", s)
	}
}

func TestDistanceFieldEviction(t *testing.T) {
	g := New(5.0)
	c := NewMaskCache(g, 2)
	ka := FieldKey{ID: "a"}
	kb := FieldKey{ID: "b"}
	kc := FieldKey{ID: "c"}
	c.Masks(ka)
	c.Masks(kb)
	c.Masks(ka) // a is now more recently used than b
	c.Masks(kc) // evicts b (LRU)
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("after overflow: %+v", s)
	}
	c.Masks(ka)
	if s := c.Stats(); s.Misses != 3 {
		t.Fatalf("a should still be cached: %+v", s)
	}
	c.Masks(kb)
	if s := c.Stats(); s.Misses != 4 {
		t.Fatalf("b should have been evicted: %+v", s)
	}
}

// TestDistanceFieldConcurrent hammers the cache from many goroutines
// over more keys than it holds (run under -race by make race): every
// returned entry must be complete, even while others are evicted.
func TestDistanceFieldConcurrent(t *testing.T) {
	g := New(5.0)
	c := NewMaskCache(g, 8)
	keys := make([]FieldKey, 16)
	for i := range keys {
		keys[i] = FieldKey{ID: string(rune('a' + i)), Lat: float64(i * 5), Lon: float64(i * 10)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 200; n++ {
				k := keys[rng.Intn(len(keys))]
				dist := c.Masks(k).Distances()
				if len(dist) != g.NumCells() {
					t.Errorf("incomplete slice for %v", k)
					return
				}
				// Spot-check one value to catch a torn fill.
				i := rng.Intn(len(dist))
				want := geo.DistanceKm(geo.Point{Lat: k.Lat, Lon: k.Lon}, g.Center(i))
				if diff := float64(dist[i]) - want; diff > 0.05 || diff < -0.05 {
					t.Errorf("bad value under concurrency: %v cell %d", k, i)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 8 {
		t.Errorf("capacity exceeded: %+v", s)
	}
}
