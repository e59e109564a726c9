package measure

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// goldenAdversaryOutputsSHA pins every sample and degradation ledger the
// armed proxied pipeline produces on the algtest fixture. A change to an
// attack's arithmetic, to the draws a lying proxy or Byzantine anchor
// takes from the stream, or to the pipeline's draw order changes it.
const goldenAdversaryOutputsSHA = "a29d84d7f363880489ca90cde3c315e0cb9c2a105ea66791ba890bbf8aecc4d5"

// TestAdversaryOutputsGolden hashes ProxiedTwoPhaseAdversarial's output
// for a fleet of four proxies over every proxy attack, two
// aggressiveness levels, with and without Byzantine anchors, under the
// zero and the default resilience policy, plus a nil plan — first on a
// fault-free network, then with injected faults so the ledgers carry
// retries and losses. The counters make sure each case is reached.
func TestAdversaryOutputsGolden(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	net := cons.Net()
	prev := net.Faults()
	defer net.SetFaults(prev)
	client := addTarget(t, net, "advg-client", geo.Point{Lat: 50.11, Lon: 8.68})
	var proxies []netsim.HostID
	for i, city := range []geo.Point{
		{Lat: 52.37, Lon: 4.89}, {Lat: 40.71, Lon: -74.01},
		{Lat: 35.68, Lon: 139.65}, {Lat: -33.87, Lon: 151.21},
	} {
		proxies = append(proxies, addTarget(t, net, fmt.Sprintf("advg-proxy-%d", i), city))
	}

	var plans []*AdversaryPlan
	plans = append(plans, nil)
	for _, atk := range []ProxyAttack{AttackNone, AttackDecoy, AttackInflate, AttackDeflate, AttackDelay} {
		for _, aggr := range []float64{1, 0.6} {
			for _, byz := range []float64{0, 0.3} {
				plans = append(plans, &AdversaryPlan{
					Seed: 5, Attack: atk, ProxyFraction: 0.5,
					Aggressiveness: aggr, ByzantineFraction: byz,
				})
			}
		}
	}

	h := sha256.New()
	seen := map[string]int{}
	f := func(v float64) uint64 { return math.Float64bits(v) }
	for _, faults := range []netsim.FaultConfig{{}, netsim.DefaultFaults(0.15)} {
		net.SetFaults(faults)
		for _, plan := range plans {
			for _, pol := range []Policy{{}, DefaultPolicy()} {
				if plan == nil {
					fmt.Fprintf(h, "plan nil policy %+v\n", pol)
				} else {
					fmt.Fprintf(h, "plan %v %v %v policy %+v\n",
						plan.Attack, plan.Aggressiveness, plan.ByzantineFraction, pol)
				}
				for _, p := range proxies {
					if plan.LyingProxy(p) {
						seen["liar"]++
					} else if plan.Enabled() {
						seen["honest-armed"]++
					}
					rng := rand.New(rand.NewSource(StreamSeed(11, p)))
					res, err := ProxiedTwoPhaseAdversarial(cons, client, p, 0, pol, plan, rng)
					fmt.Fprintf(h, "%s err=%v\n", p, err)
					if err != nil {
						seen["error"]++
						continue
					}
					fmt.Fprintf(h, "cont=%v\n", res.Continent)
					for _, s := range res.Samples() {
						if plan.ByzantineLandmark(s.LandmarkID) {
							seen["byzantine"]++
						}
						fmt.Fprintf(h, "%s %x %x %x %d\n", s.LandmarkID,
							f(s.Landmark.Lat), f(s.Landmark.Lon), f(s.RTTms), s.Trips)
					}
					if d := res.Deg; d != nil {
						seen["ledger"]++
						if len(d.LostLandmarks) > 0 {
							seen["loss"]++
						}
						if d.Retries > 0 {
							seen["retry"]++
						}
						fmt.Fprintf(h, "deg %d %d %v %d %d %v %v %x\n", d.Planned, d.Measured,
							d.LostLandmarks, d.Retries, d.ProbeFailures,
							d.Disconnected, d.BudgetExhausted, f(d.ElapsedMs))
					}
				}
			}
		}
	}
	for _, c := range []string{"liar", "honest-armed", "byzantine", "ledger", "loss", "retry"} {
		if seen[c] == 0 {
			t.Errorf("no %s case reached: %v", c, seen)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenAdversaryOutputsSHA {
		t.Errorf("adversary outputs SHA = %s, want %s (cases %v)", got, goldenAdversaryOutputsSHA, seen)
	}
}
