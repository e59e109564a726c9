package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// goldenNetOutputsSHA pins every primitive's output on a fixed host set,
// with faults off and on. A change to how the simulator derives its
// per-pair or per-host draws, or to how many draws a call takes from the
// caller's stream, changes it.
const goldenNetOutputsSHA = "e14bab29e097fa2ed181418e5a8ac563535525c73dc4372f6c38b2d9e685f14d"

// TestNetOutputsGolden hashes BaseRTTMs, SampleRTTMs, MinOfSamples,
// TCPConnect, Probe and Outage over every ordered pair of a host set
// holding a self pair, an unknown host, a filtered port, island hub
// routing and a congested area, then a run of connects over a lossy path
// (SYN-loss retransmits). The counters make sure each case is reached.
func TestNetOutputsGolden(t *testing.T) {
	n := newTestNet(t)
	if err := n.AddHost(&Host{ID: "flt", Loc: geo.Point{Lat: 48.86, Lon: 2.35},
		FilteredPorts: map[int]bool{80: true}}); err != nil {
		t.Fatal(err)
	}
	stop := n.StartCongestion(CongestionEpisode{
		Area:              geo.Cap{Center: geo.Point{Lat: 40.71, Lon: -74.01}, RadiusKm: 200},
		ExtraBaseMs:       15,
		ExtraJitterMeanMs: 5,
	})
	defer stop()
	ids := []HostID{"fra", "ams", "nyc", "syd", "pek", "fij", "noum", "flt", "ghost"}

	h := sha256.New()
	seen := map[string]int{}
	put := func(v float64, err error) {
		fmt.Fprintf(h, "%x|%v\n", math.Float64bits(v), err)
		switch {
		case errors.Is(err, ErrUnknownHost):
			seen["unknown"]++
		case errors.Is(err, ErrPortFiltered):
			seen["filtered"]++
		case errors.Is(err, ErrHostOutage):
			seen["outage"]++
		case errors.Is(err, ErrProbeLost):
			seen["lost"]++
		}
	}
	for _, cfg := range []FaultConfig{{}, {ProbeLoss: 0.2, OutageFraction: 0.5, SpikeProb: 0.2, HorizonMs: 20000}} {
		n.SetFaults(cfg)
		rng := rand.New(rand.NewSource(2024))
		clk := &Clock{}
		for _, a := range ids {
			for _, b := range ids {
				put(n.BaseRTTMs(a, b))
				put(n.SampleRTTMs(a, b, rng))
				put(n.MinOfSamples(a, b, 3, rng))
				put(n.TCPConnect(a, b, 80, rng))
				put(n.Probe(a, b, 80, rng, clk))
			}
		}
		for _, id := range ids {
			s, e, ok := n.Outage(id)
			fmt.Fprintf(h, "%x %x %v\n", math.Float64bits(s), math.Float64bits(e), ok)
		}
		base, err := n.BaseRTTMs("fra", "pek")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			v, err := n.TCPConnect("fra", "pek", 80, rng)
			put(v, err)
			if err == nil && v >= base+synRetransmitMs {
				seen["retransmit"]++
			}
		}
	}
	for _, c := range []string{"unknown", "filtered", "outage", "lost", "retransmit"} {
		if seen[c] == 0 {
			t.Errorf("no %s case reached: %v", c, seen)
		}
	}
	if hub, _ := n.BaseRTTMs("fij", "noum"); hub < 2.5*2*geo.DistanceKm(n.Host("fij").Loc, n.Host("noum").Loc)/geo.BaselineSpeedKmPerMs {
		t.Errorf("island pair not hub-routed: %.1f ms", hub)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenNetOutputsSHA {
		t.Errorf("netsim outputs SHA = %s, want %s", got, goldenNetOutputsSHA)
	}
}
