package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// pathTestIDs are the hosts of pathTestNet plus one that is never
// added, so every ordered pair covers self pairs, unknown hosts, a
// filtered port, island↔island and island↔mainland hub routing and
// congested (poor-quality) endpoints.
var pathTestIDs = []HostID{"fra", "pek", "los", "syd", "fij", "noum", "mv", "gu", "mu", "flt", "ghost"}

// pathTestNet builds the hosts of pathTestIDs (all but "ghost") at the
// given seed.
func pathTestNet(t testing.TB, seed int64) *Network {
	t.Helper()
	n := New(seed)
	for _, h := range []*Host{
		{ID: "fra", Loc: geo.Point{Lat: 50.11, Lon: 8.68}, Country: "de"},
		{ID: "pek", Loc: geo.Point{Lat: 39.90, Lon: 116.40}, Country: "cn"},
		{ID: "los", Loc: geo.Point{Lat: 6.52, Lon: 3.38}, Country: "ng"},
		{ID: "syd", Loc: geo.Point{Lat: -33.87, Lon: 151.21}, Country: "au"},
		{ID: "fij", Loc: geo.Point{Lat: -18.14, Lon: 178.44}, Country: "fj"},
		{ID: "noum", Loc: geo.Point{Lat: -22.27, Lon: 166.44}, Country: "nc"},
		{ID: "mv", Loc: geo.Point{Lat: 4.17, Lon: 73.51}, Country: "mv"},
		{ID: "gu", Loc: geo.Point{Lat: 13.44, Lon: 144.79}, Country: "gu"},
		{ID: "mu", Loc: geo.Point{Lat: -20.16, Lon: 57.50}, Country: "mu"},
		{ID: "flt", Loc: geo.Point{Lat: 48.86, Lon: 2.35}, Country: "fr", FilteredPorts: map[int]bool{80: true}},
	} {
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// outcome renders one primitive's result so sequences compare exactly:
// the float's bits and the error text.
func outcome(v float64, err error) string {
	return fmt.Sprintf("%x|%v", v, err)
}

// pathVsByID runs k rounds of BaseRTTMs, SampleRTTMs and Probe on one
// reused Path and on fresh by-ID calls, each side with its own rng and
// Clock seeded alike, and returns the first difference ("" if none)
// plus how many of the path's probes failed.
func pathVsByID(n *Network, from, to HostID, k int, seed int64) (diff string, failed int) {
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	c1, c2 := &Clock{}, &Clock{}
	p := n.Path(from, to)
	for i := 0; i < k; i++ {
		base := [2]string{outcome(p.BaseRTTMs()), outcome(n.BaseRTTMs(from, to))}
		sample := [2]string{outcome(p.SampleRTTMs(r1)), outcome(n.SampleRTTMs(from, to, r2))}
		v, err := p.Probe(80, r1, c1)
		if err != nil {
			failed++
		}
		pairs := [][2]string{base, sample, {outcome(v, err), outcome(n.Probe(from, to, 80, r2, c2))}}
		for j, pr := range pairs {
			if pr[0] != pr[1] {
				return fmt.Sprintf("%s→%s round %d call %d: path %s, by ID %s", from, to, i, j, pr[0], pr[1]), failed
			}
		}
		if c1.NowMs() != c2.NowMs() {
			return fmt.Sprintf("%s→%s round %d: clocks %v vs %v", from, to, i, c1.NowMs(), c2.NowMs()), failed
		}
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		return fmt.Sprintf("%s→%s: streams diverged after %d rounds", from, to, k), failed
	}
	return "", failed
}

// TestPathMatchesByID: one Path reused for k samples and k probes
// returns what k by-ID calls return from an identically seeded stream,
// with faults off and armed, over every ordered pair of pathTestIDs.
func TestPathMatchesByID(t *testing.T) {
	var failed [2]int
	for c, cfg := range []FaultConfig{{}, {ProbeLoss: 0.2, OutageFraction: 0.5, SpikeProb: 0.3, HorizonMs: 5000}} {
		n := pathTestNet(t, 7)
		n.SetFaults(cfg)
		stop := n.StartCongestion(CongestionEpisode{
			Area:              geo.Cap{Center: geo.Point{Lat: 39.90, Lon: 116.40}, RadiusKm: 300},
			ExtraBaseMs:       20,
			ExtraJitterMeanMs: 10,
		})
		for i, a := range pathTestIDs {
			for j, b := range pathTestIDs {
				diff, f := pathVsByID(n, a, b, 8, int64(100*i+j))
				if diff != "" {
					t.Errorf("faults %+v: %s", cfg, diff)
				}
				failed[c] += f
			}
		}
		stop()
	}
	// Unknown hosts and the filtered port fail in both runs; the armed
	// run must also lose probes to its fault models.
	if failed[1] <= failed[0] {
		t.Errorf("%d probes failed with faults armed, %d without — fault layer not reached", failed[1], failed[0])
	}
}

// TestPathSeesCongestionPerSample: an episode started or stopped
// between two samples on the same Path is seen by the next sample.
func TestPathSeesCongestionPerSample(t *testing.T) {
	n := pathTestNet(t, 7)
	r1, r2 := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	p := n.Path("fra", "syd")
	base, err := p.BaseRTTMs()
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string) float64 {
		t.Helper()
		v, err := p.SampleRTTMs(r1)
		w, err2 := n.SampleRTTMs("fra", "syd", r2)
		if err != nil || err2 != nil || v != w {
			t.Fatalf("%s: path %v (%v), by ID %v (%v)", phase, v, err, w, err2)
		}
		return v
	}
	check("before")
	stop := n.StartCongestion(CongestionEpisode{
		Area:        geo.Cap{Center: geo.Point{Lat: 50.11, Lon: 8.68}, RadiusKm: 100},
		ExtraBaseMs: 500,
	})
	if v := check("during"); v < base+500 {
		t.Errorf("sample %.1f ms during a 500 ms standing queue on base %.1f ms", v, base)
	}
	stop()
	check("after")
}

// TestPathUnknownHost: an unknown endpoint fails at the same call, with
// the same error, after the same draws, as the by-ID primitives.
func TestPathUnknownHost(t *testing.T) {
	n := pathTestNet(t, 7)
	n.SetFaults(FaultConfig{ProbeLoss: 0.5, OutageFraction: 0.5, HorizonMs: 1})
	for _, pair := range [][2]HostID{{"fra", "ghost"}, {"ghost", "fra"}, {"ghost", "ghost"}} {
		p := n.Path(pair[0], pair[1])
		if _, err := p.BaseRTTMs(); err != ErrUnknownHost {
			t.Errorf("%v BaseRTTMs: %v", pair, err)
		}
		rng := rand.New(rand.NewSource(1))
		if _, err := p.SampleRTTMs(rng); err != ErrUnknownHost {
			t.Errorf("%v SampleRTTMs: %v", pair, err)
		}
		if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
			t.Errorf("%v SampleRTTMs drew from the stream before failing", pair)
		}
		// Probe fails through the outage, loss or unknown-host check,
		// whichever fires first; the by-ID call must agree at every
		// step.
		if diff, _ := pathVsByID(n, pair[0], pair[1], 16, 3); diff != "" {
			t.Error(diff)
		}
	}
}

// TestPathListensHTTP: the accessor reports the destination host's own
// port-80 flag, whoever asks, and false for an unknown destination.
func TestPathListensHTTP(t *testing.T) {
	n := pathTestNet(t, 7)
	if err := n.AddHost(&Host{ID: "web", Loc: geo.Point{Lat: 52.52, Lon: 13.40}, Country: "de", ListensHTTP: true}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from, to HostID
		want     bool
	}{{"fra", "web", true}, {"ghost", "web", true}, {"web", "fra", false}, {"fra", "ghost", false}} {
		p := n.Path(c.from, c.to)
		if got := p.ListensHTTP(); got != c.want {
			t.Errorf("%s→%s ListensHTTP = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// TestBaseRTTSymmetricOffIslandPairs: a round trip's base RTT does not
// depend on which end asks, for every pair of pathTestNet's hosts but
// one kind. Two islands in different countries route through the
// nearest hub of the host that asks, so their RTT is directional (at
// seed 1, fij→mv is 192 ms and mv→fij 265 ms). Taking the shorter of
// the two detours would make it symmetric, but it also changes the
// calibration mesh of island anchors and with it every recorded
// locate-replay region, so it is left for a change that re-pins those.
func TestBaseRTTSymmetricOffIslandPairs(t *testing.T) {
	for _, seed := range []int64{1, 7, 2018} {
		n := pathTestNet(t, seed)
		island := func(id HostID) bool { return countryQuality(n.Host(id).Country) == QualityIsland }
		checked := 0
		for _, a := range pathTestIDs[:len(pathTestIDs)-1] {
			for _, b := range pathTestIDs[:len(pathTestIDs)-1] {
				if a != b && island(a) && island(b) {
					continue
				}
				checked++
				ab, err1 := n.BaseRTTMs(a, b)
				ba, err2 := n.BaseRTTMs(b, a)
				if err1 != nil || err2 != nil || ab != ba {
					t.Errorf("seed %d: BaseRTTMs(%s,%s) = %v (%v), BaseRTTMs(%s,%s) = %v (%v)",
						seed, a, b, ab, err1, b, a, ba, err2)
				}
			}
		}
		if checked < 70 {
			t.Fatalf("seed %d: only %d pairs checked", seed, checked)
		}
	}
}

// FuzzPathMatchesNetwork: for any seed, pair of pathTestIDs, attempt
// count and fault configuration, a reused Path and fresh by-ID calls
// produce the same outcomes, clock and stream.
func FuzzPathMatchesNetwork(f *testing.F) {
	f.Add(int64(7), uint8(4), uint8(6), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2018), uint8(0), uint8(1), uint8(8), uint8(20), uint8(50), uint8(30))
	f.Add(int64(1), uint8(9), uint8(10), uint8(5), uint8(90), uint8(90), uint8(90))
	f.Add(int64(-3), uint8(2), uint8(2), uint8(1), uint8(10), uint8(0), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, i, j, k, loss, outage, spike uint8) {
		n := pathTestNet(t, seed)
		n.SetFaults(FaultConfig{
			ProbeLoss:      float64(loss%101) / 100,
			OutageFraction: float64(outage%101) / 100,
			SpikeProb:      float64(spike%101) / 100,
			HorizonMs:      5000,
		})
		stop := n.StartCongestion(CongestionEpisode{
			Area:              geo.Cap{Center: geo.Point{Lat: 6.52, Lon: 3.38}, RadiusKm: 500},
			ExtraBaseMs:       30,
			ExtraJitterMeanMs: 15,
		})
		defer stop()
		a := pathTestIDs[int(i)%len(pathTestIDs)]
		b := pathTestIDs[int(j)%len(pathTestIDs)]
		if diff, _ := pathVsByID(n, a, b, 1+int(k)%16, seed); diff != "" {
			t.Error(diff)
		}
	})
}
