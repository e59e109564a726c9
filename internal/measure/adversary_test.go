package measure

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geo"
)

func TestAdversaryDecoyShiftsApparentLocation(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv-client", geo.Point{Lat: 50.11, Lon: 8.68})
	proxy := addTarget(t, cons.Net(), "adv-proxy", geo.Point{Lat: 52.37, Lon: 4.89}) // really Amsterdam
	decoy := geo.Point{Lat: 35.68, Lon: 139.65}                                      // pretends Tokyo
	rng := rand.New(rand.NewSource(8))

	inner := &ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy}
	adv := liarTool{inner, &AdversaryPlan{Attack: AttackDecoy, ProxyFraction: 1}, decoy}

	lms := cons.Anchors()[:30]
	honest := inner
	var honestErr, forgedErr float64
	n := 0
	for _, lm := range lms {
		h, err := honest.Measure("", lm, rng)
		if err != nil {
			continue
		}
		f, err := adv.Measure("", lm, rng)
		if err != nil {
			continue
		}
		clientLeg, _ := cons.Net().BaseRTTMs(client, proxy)
		trueDist := geo.DistanceKm(geo.Point{Lat: 52.37, Lon: 4.89}, lm.Host.Loc)
		decoyDist := geo.DistanceKm(decoy, lm.Host.Loc)
		// Honest apparent proxy-leg one-way distance at 120 km/ms.
		honestKm := geo.OneWayMs(h.RTTms-clientLeg) * 120
		forgedKm := geo.OneWayMs(f.RTTms-clientLeg) * 120
		honestErr += abs(honestKm - trueDist)
		forgedErr += abs(forgedKm - decoyDist)
		n++
	}
	if n < 10 {
		t.Fatalf("only %d measurements", n)
	}
	// The forged measurements should track the decoy geometry at least
	// as consistently as honest ones track the truth.
	if forgedErr/float64(n) > 3000 {
		t.Errorf("forged measurements mean deviation from decoy geometry %.0f km", forgedErr/float64(n))
	}
}

func TestAdversaryExtraDelay(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv2-client", geo.Point{Lat: 50.11, Lon: 8.68})
	proxy := addTarget(t, cons.Net(), "adv2-proxy", geo.Point{Lat: 48.86, Lon: 2.35})
	inner := &ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy, Attempts: 1}
	adv := liarTool{inner: inner, plan: &AdversaryPlan{Attack: AttackDelay, ProxyFraction: 1}}
	lm := cons.Anchors()[0]

	rng := rand.New(rand.NewSource(9))
	base, err := inner.Measure("", lm, rng)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := adv.Measure("", lm, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Not comparable sample-to-sample (different jitter draws), but the
	// 120 ms padding must dominate.
	if forged.RTTms < base.RTTms+50 {
		t.Errorf("extra delay not applied: %.1f vs %.1f", forged.RTTms, base.RTTms)
	}
}

// TestAdversaryForgedCentroidNearDecoy multilaterates the forged
// measurements over a candidate grid (the anchors' own locations plus
// the plan's hash-chosen decoy and the truth) and asserts the
// best-fitting candidate lands within tolerance of the decoy — the
// attacker's goal state.
func TestAdversaryForgedCentroidNearDecoy(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv4-client", geo.Point{Lat: 50.11, Lon: 8.68})
	trueLoc := geo.Point{Lat: 52.37, Lon: 4.89}
	proxy := addTarget(t, cons.Net(), "adv4-proxy", trueLoc)
	plan := &AdversaryPlan{Seed: 4, Attack: AttackDecoy, ProxyFraction: 1}
	decoy := plan.DecoyFor(proxy, trueLoc)
	inner := &ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy}
	adv := liarTool{inner, plan, decoy}
	rng := rand.New(rand.NewSource(44))
	clientLeg, _ := cons.Net().BaseRTTMs(client, proxy)

	lms := cons.Anchors()[:40]
	type obs struct {
		at geo.Point
		km float64
	}
	var observations []obs
	for _, lm := range lms {
		s, err := adv.Measure("", lm, rng)
		if err != nil {
			continue
		}
		observations = append(observations, obs{lm.Host.Loc, geo.OneWayMs(s.RTTms-clientLeg) * 120})
	}
	if len(observations) < 20 {
		t.Fatalf("only %d measurements", len(observations))
	}
	candidates := []geo.Point{decoy, trueLoc}
	for _, lm := range lms {
		candidates = append(candidates, lm.Host.Loc)
	}
	best, bestCost := geo.Point{}, 0.0
	for i, c := range candidates {
		cost := 0.0
		for _, o := range observations {
			cost += abs(geo.DistanceKm(c, o.at) - o.km)
		}
		if i == 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	if d := geo.DistanceKm(best, decoy); d > 1000 {
		t.Errorf("forged measurements multilaterate to %+v, %.0f km from decoy", best, d)
	}
}

// TestAdversaryClientLegFloor asserts the invariant every attack mode
// must respect: the client talks to the proxy directly, so no forged
// RTT can undercut the real client↔proxy time.
func TestAdversaryClientLegFloor(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv5-client", geo.Point{Lat: 50.11, Lon: 8.68})
	proxy := addTarget(t, cons.Net(), "adv5-proxy", geo.Point{Lat: 48.86, Lon: 2.35})
	decoy := geo.Point{Lat: 1.35, Lon: 103.82}
	near := geo.Point{Lat: 48.8, Lon: 2.4} // decoy on top of the proxy: max deflation pressure
	clientLeg, _ := cons.Net().BaseRTTMs(client, proxy)

	cases := []struct {
		name  string
		plan  AdversaryPlan
		decoy geo.Point
	}{
		{"decoy-full", AdversaryPlan{Attack: AttackDecoy}, decoy},
		{"decoy-near", AdversaryPlan{Attack: AttackDecoy}, near},
		{"decoy-blend", AdversaryPlan{Attack: AttackDecoy, Aggressiveness: 0.6}, near},
		{"inflate", AdversaryPlan{Attack: AttackInflate}, geo.Point{}},
		{"deflate-full", AdversaryPlan{Attack: AttackDeflate}, geo.Point{}},
		{"deflate-blend", AdversaryPlan{Attack: AttackDeflate, Aggressiveness: 0.4}, geo.Point{}},
		{"delay", AdversaryPlan{Attack: AttackDelay}, geo.Point{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			plan.ProxyFraction = 1
			tool := liarTool{&ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy}, &plan, tc.decoy}
			rng := rand.New(rand.NewSource(45))
			for _, lm := range cons.Anchors()[:30] {
				s, err := tool.Measure("", lm, rng)
				if err != nil {
					continue
				}
				if s.RTTms < clientLeg {
					t.Fatalf("%s: forged RTT %.3f ms undercuts client leg %.3f ms at %s",
						tc.name, s.RTTms, clientLeg, lm.Host.ID)
				}
			}
		})
	}
}

// TestAdversaryExtraDelayConstantShift pins the Gill-style expectation:
// under AttackDelay, identical RNG streams produce measurements offset
// by exactly the aggressiveness-scaled constant (the attack consumes no
// extra draws).
func TestAdversaryExtraDelayConstantShift(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv6-client", geo.Point{Lat: 50.11, Lon: 8.68})
	proxy := addTarget(t, cons.Net(), "adv6-proxy", geo.Point{Lat: 48.86, Lon: 2.35})
	inner := &ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy}
	adv := liarTool{inner: inner, plan: &AdversaryPlan{Attack: AttackDelay, ProxyFraction: 1, Aggressiveness: 0.5}}
	const shift = 0.5 * extraDelayMs

	honestRng := rand.New(rand.NewSource(46))
	forgedRng := rand.New(rand.NewSource(46))
	for _, lm := range cons.Anchors()[:25] {
		h, errH := inner.Measure("", lm, honestRng)
		f, errF := adv.Measure("", lm, forgedRng)
		if (errH == nil) != (errF == nil) {
			t.Fatalf("error divergence at %s: %v vs %v", lm.Host.ID, errH, errF)
		}
		if errH != nil {
			continue
		}
		if got := f.RTTms - h.RTTms; abs(got-shift) > 1e-9 {
			t.Errorf("%s: shift %.6f ms, want exactly %.0f", lm.Host.ID, got, shift)
		}
	}
}

// TestAdversarySelectiveTargeting asserts the selective attacks hit
// exactly the hash-chosen subset: targeted landmarks move, untargeted
// landmarks' measurements are byte-identical to honest ones.
func TestAdversarySelectiveTargeting(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	client := addTarget(t, cons.Net(), "adv7-client", geo.Point{Lat: 50.11, Lon: 8.68})
	proxy := addTarget(t, cons.Net(), "adv7-proxy", geo.Point{Lat: 48.86, Lon: 2.35})
	inner := &ProxiedTool{Net: cons.Net(), Client: client, Proxy: proxy}

	cases := []struct {
		name   string
		attack ProxyAttack
		dir    float64 // expected sign of (forged − honest) on targets
	}{
		{"inflate", AttackInflate, +1},
		{"deflate", AttackDeflate, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &AdversaryPlan{Seed: 3, Attack: tc.attack, ProxyFraction: 1}
			tool := liarTool{inner: inner, plan: plan}
			honestRng := rand.New(rand.NewSource(47))
			forgedRng := rand.New(rand.NewSource(47))
			var targeted, spared int
			for _, lm := range cons.Anchors()[:30] {
				h, errH := inner.Measure("", lm, honestRng)
				f, errF := tool.Measure("", lm, forgedRng)
				if errH != nil || errF != nil {
					continue
				}
				if plan.targeted(lm.Host.ID) {
					targeted++
					if tc.dir*(f.RTTms-h.RTTms) <= 0 {
						t.Errorf("targeted %s unmoved: honest %.3f forged %.3f", lm.Host.ID, h.RTTms, f.RTTms)
					}
				} else {
					spared++
					if f.RTTms != h.RTTms {
						t.Errorf("untargeted %s perturbed: honest %.6f forged %.6f", lm.Host.ID, h.RTTms, f.RTTms)
					}
				}
			}
			if targeted < 5 || spared < 5 {
				t.Fatalf("degenerate split: %d targeted, %d spared", targeted, spared)
			}
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
