package cbgpp

import (
	"math/rand"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// TestCongestedCalibrationFailureInjection reproduces the §5.1 failure
// mode end to end: a landmark whose neighborhood was congested *during
// calibration* fits a bestline biased upward; a later, clean measurement
// of a target looks "too fast" for that model, so the landmark's disk
// underestimates. Plain CBG's strict intersection then loses the target
// (or goes empty); CBG++'s baseline-region filter discards the
// underestimating disk and keeps covering it.
func TestCongestedCalibrationFailureInjection(t *testing.T) {
	net := netsim.New(303)
	rng := rand.New(rand.NewSource(303))
	cons, err := atlas.Build(net, atlas.Config{Anchors: 60, Probes: 0, SamplesPerPair: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Congest a wide area around the first European anchor and
	// recalibrate: its whole mesh view is biased up by a standing queue.
	var victim *atlas.Landmark
	for _, a := range cons.Anchors() {
		if a.Host.Country == "de" || a.Host.Country == "fr" || a.Host.Country == "nl" {
			victim = a
			break
		}
	}
	if victim == nil {
		victim = cons.Anchors()[0]
	}
	stop := net.StartCongestion(netsim.CongestionEpisode{
		Area:        geo.Cap{Center: victim.Host.Loc, RadiusKm: 150},
		ExtraBaseMs: 80,
	})
	cons.RefreshCalibration(3, rng)
	stop() // congestion clears before the target is measured

	env := geoloc.NewEnv(1.5)
	plainCal, err := cbg.Calibrate(cons, cbg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := cbg.New(env, plainCal)
	ppCal, err := Calibrate(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pp := New(env, ppCal, Options{})

	// A target near the victim landmark, measured cleanly.
	target := netsim.HostID("victim-neighbor")
	loc := geo.DestinationPoint(victim.Host.Loc, 45, 300)
	if err := net.AddHost(&netsim.Host{ID: target, Loc: loc}); err != nil {
		t.Fatal(err)
	}
	var ms []geoloc.Measurement
	for _, lm := range cons.Anchors() {
		rtt, err := net.MinOfSamples(target, lm.Host.ID, 3, rng)
		if err != nil {
			continue
		}
		ms = append(ms, geoloc.Measurement{LandmarkID: lm.Host.ID, Landmark: lm.Host.Loc, RTTms: rtt})
	}

	// The victim's disk must underestimate its distance to the target.
	var victimMeas *geoloc.Measurement
	for i := range ms {
		if ms[i].LandmarkID == victim.Host.ID {
			victimMeas = &ms[i]
		}
	}
	if victimMeas == nil {
		t.Fatal("victim landmark unmeasured")
	}
	est := ppCal.MaxDistanceKm(victim.Host.ID, victimMeas.OneWayMs())
	truth := geo.DistanceKm(victim.Host.Loc, loc)
	if est >= truth {
		t.Skipf("injection did not produce an underestimate (est %.0f ≥ true %.0f); congestion too mild for this seed", est, truth)
	}
	t.Logf("victim disk: estimated %.0f km, true %.0f km", est, truth)

	slack := 1.2 * grid.KmPerDeg * env.Grid.Resolution()
	plainRegion, err := plain.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	plainMiss := plainRegion.Empty() || plainRegion.DistanceToPointKm(loc) > slack

	ppRegion, err := pp.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if ppRegion.Empty() {
		t.Fatal("CBG++ returned an empty region")
	}
	if d := ppRegion.DistanceToPointKm(loc); d > slack {
		t.Errorf("CBG++ missed the target by %.0f km despite the baseline filter", d)
	}
	if !plainMiss {
		// The single underestimating disk may not have been enough to
		// break plain CBG at this grid resolution; that's fine — the
		// essential §5.1 property is CBG++ covering. Record it.
		t.Logf("plain CBG survived the injection too (region %v)", plainRegion)
	} else {
		t.Logf("plain CBG lost the target; CBG++ covered it — §5.1 reproduced")
	}
}
