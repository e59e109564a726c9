package crowd

import (
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

var (
	once    sync.Once
	consFix *atlas.Constellation
	hostFix []*Host
)

func fixture(t testing.TB) (*atlas.Constellation, []*Host) {
	t.Helper()
	once.Do(func() {
		net := netsim.New(99)
		rng := rand.New(rand.NewSource(99))
		var err error
		consFix, err = atlas.Build(net, atlas.Config{Anchors: 40, Probes: 30, SamplesPerPair: 3}, rng)
		if err != nil {
			panic(err)
		}
		hostFix, err = Build(consFix, Config{Volunteers: 10, MTurk: 40}, rng)
		if err != nil {
			panic(err)
		}
	})
	return consFix, hostFix
}

func TestBuildCohort(t *testing.T) {
	_, hosts := fixture(t)
	if len(hosts) != 50 {
		t.Fatalf("cohort size %d", len(hosts))
	}
	volunteers, mturk := 0, 0
	windows := 0
	for _, h := range hosts {
		if h.MTurk {
			mturk++
		} else {
			volunteers++
		}
		if h.OS == measure.Windows {
			windows++
		}
		if !h.TrueLoc.Valid() || !h.Reported.Valid() {
			t.Errorf("%s has invalid locations", h.ID)
		}
		// Reported location within ~2 km of truth (rounded coords).
		if d := geo.DistanceKm(h.TrueLoc, h.Reported); d > 2 {
			t.Errorf("%s reported %f km from truth", h.ID, d)
		}
	}
	if volunteers != 10 || mturk != 40 {
		t.Errorf("split %d/%d", volunteers, mturk)
	}
	// §4.3/§5: most contributors used Windows.
	if windows < len(hosts)/2 {
		t.Errorf("only %d/%d on Windows", windows, len(hosts))
	}
}

func TestCohortGeography(t *testing.T) {
	_, hosts := fixture(t)
	byCont := map[worldmap.Continent]int{}
	for _, h := range hosts {
		if c := worldmap.Locate(h.TrueLoc); c != nil {
			byCont[c.Continent]++
		}
	}
	// Europe + North America majority, but at least three continents.
	if byCont[worldmap.Europe]+byCont[worldmap.NorthAmerica] < len(hosts)/3 {
		t.Errorf("EU+NA share too small: %v", byCont)
	}
	if len(byCont) < 3 {
		t.Errorf("only %d continents: %v", len(byCont), byCont)
	}
}

func TestMeasureAllAnchors(t *testing.T) {
	cons, hosts := fixture(t)
	rng := rand.New(rand.NewSource(7))
	samples := hosts[0].MeasureAllAnchors(cons, rng)
	if len(samples) != len(cons.Anchors()) {
		t.Fatalf("samples = %d, want %d", len(samples), len(cons.Anchors()))
	}
	for _, s := range samples {
		if s.RTTms <= 0 {
			t.Fatalf("bad RTT %f", s.RTTms)
		}
		if s.Trips != 1 && s.Trips != 2 {
			t.Fatalf("trips = %d", s.Trips)
		}
	}
}

func TestDefaultConfigUsedWhenEmpty(t *testing.T) {
	net := netsim.New(123)
	cons, err := atlas.Build(net, atlas.Config{Anchors: 10, Probes: 0, SamplesPerPair: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := Build(cons, Config{}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 190 {
		t.Errorf("default cohort size %d, want 190 (40+150)", len(hosts))
	}
}
