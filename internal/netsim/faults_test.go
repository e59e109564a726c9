package netsim

import (
	"errors"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

func faultNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n := New(seed)
	hosts := []struct {
		id  HostID
		loc geo.Point
	}{
		{"ff-client", geo.Point{Lat: 50.11, Lon: 8.68}},
		{"ff-lm-paris", geo.Point{Lat: 48.86, Lon: 2.35}},
		{"ff-lm-nyc", geo.Point{Lat: 40.71, Lon: -74.01}},
		{"ff-lm-tokyo", geo.Point{Lat: 35.68, Lon: 139.65}},
	}
	for _, h := range hosts {
		if err := n.AddHost(&Host{ID: h.id, Loc: h.loc}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestProbeDisabledMatchesTCPConnect: with the zero FaultConfig, Probe
// must draw the exact random sequence TCPConnect draws — the byte-
// identical-replay guarantee the audit regression test depends on.
func TestProbeDisabledMatchesTCPConnect(t *testing.T) {
	n := faultNet(t, 11)
	r1 := rand.New(rand.NewSource(99))
	r2 := rand.New(rand.NewSource(99))
	clk := &Clock{}
	for i := 0; i < 50; i++ {
		a, errA := n.TCPConnect("ff-client", "ff-lm-paris", 80, r1)
		b, errB := n.Probe("ff-client", "ff-lm-paris", 80, r2, clk)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("probe %d: TCPConnect (%v, %v) != Probe (%v, %v)", i, a, errA, b, errB)
		}
	}
	if clk.NowMs() <= 0 {
		t.Error("clock did not advance across successful probes")
	}
}

// TestProbeDeterministicWithFaults: with faults armed, two identical
// streams see identical fault sequences and identical RTTs.
func TestProbeDeterministicWithFaults(t *testing.T) {
	cfg := FaultConfig{ProbeLoss: 0.3, OutageFraction: 0.4, SpikeProb: 0.2}
	run := func() ([]float64, []string, float64) {
		n := faultNet(t, 11)
		n.SetFaults(cfg)
		rng := rand.New(rand.NewSource(7))
		clk := &Clock{}
		var rtts []float64
		var errs []string
		for i := 0; i < 60; i++ {
			v, err := n.Probe("ff-client", "ff-lm-nyc", 80, rng, clk)
			rtts = append(rtts, v)
			if err != nil {
				errs = append(errs, err.Error())
			}
		}
		return rtts, errs, clk.NowMs()
	}
	r1, e1, t1 := run()
	r2, e2, t2 := run()
	if len(e1) == 0 {
		t.Fatal("no injected faults at 30% loss over 60 probes — fault layer inert")
	}
	if t1 != t2 || len(e1) != len(e2) {
		t.Fatalf("fault replay diverged: %v/%d vs %v/%d", t1, len(e1), t2, len(e2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("probe %d RTT diverged: %v vs %v", i, r1[i], r2[i])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("error %d diverged: %q vs %q", i, e1[i], e2[i])
		}
	}
}

// TestOutagePureFunction: outage windows depend only on (seed, config,
// host), never on measurement order or prior draws.
func TestOutagePureFunction(t *testing.T) {
	cfg := FaultConfig{OutageFraction: 0.5}
	n1 := faultNet(t, 23)
	n1.SetFaults(cfg)
	n2 := faultNet(t, 23)
	n2.SetFaults(cfg)
	ids := []HostID{"ff-lm-paris", "ff-lm-nyc", "ff-lm-tokyo", "ff-client"}
	anyOutage := false
	for _, id := range ids {
		s1, e1, ok1 := n1.Outage(id)
		// Interleave unrelated draws on n2 before asking: must not matter.
		r := rand.New(rand.NewSource(1))
		_, _ = n2.SampleRTTMs("ff-client", "ff-lm-nyc", r)
		s2, e2, ok2 := n2.Outage(id)
		if s1 != s2 || e1 != e2 || ok1 != ok2 {
			t.Errorf("host %s: outage (%v,%v,%v) vs (%v,%v,%v)", id, s1, e1, ok1, s2, e2, ok2)
		}
		if ok1 {
			anyOutage = true
			if e1 <= s1 || s1 < 0 || s1 >= cfg.Horizon() {
				t.Errorf("host %s: malformed window [%v,%v)", id, s1, e1)
			}
			if !n1.HostDown(id, (s1+e1)/2) {
				t.Errorf("host %s: not down inside its own window", id)
			}
			if n1.HostDown(id, e1+1) {
				t.Errorf("host %s: down after its window", id)
			}
		}
	}
	if !anyOutage {
		t.Error("no host drew an outage at fraction 0.5 — derivation suspect")
	}

	// A different seed must reshuffle the windows.
	n3 := faultNet(t, 24)
	n3.SetFaults(cfg)
	same := 0
	for _, id := range ids {
		s1, e1, ok1 := n1.Outage(id)
		s3, e3, ok3 := n3.Outage(id)
		if s1 == s3 && e1 == e3 && ok1 == ok3 {
			same++
		}
	}
	if same == len(ids) {
		t.Error("outage windows identical across different seeds")
	}
}

// TestProbeOutageMatchesOutage: Probe fails with ErrHostOutage exactly
// when the probe's campaign time falls inside Outage(to)'s window under
// the armed config — before, inside and after each window.
func TestProbeOutageMatchesOutage(t *testing.T) {
	n := faultNet(t, 23)
	n.SetFaults(FaultConfig{OutageFraction: 0.5})
	ids := []HostID{"ff-lm-paris", "ff-lm-nyc", "ff-lm-tokyo", "ff-client"}
	rng := rand.New(rand.NewSource(6))
	windows := 0
	for _, id := range ids {
		start, end, ok := n.Outage(id)
		times := []float64{0, 1000, 30000, 59999}
		if ok {
			windows++
			times = append(times, start, (start+end)/2, end-1e-6, end, end+1)
		}
		for _, at := range times {
			_, err := n.Probe("ff-client", id, 80, rng, &Clock{ms: at})
			want := ok && at >= start && at < end
			if got := errors.Is(err, ErrHostOutage); got != want {
				t.Errorf("%s at t=%v: outage verdict %v, Outage window [%v,%v) ok=%v", id, at, got, start, end, ok)
			}
			if want != n.HostDown(id, at) {
				t.Errorf("%s at t=%v: HostDown disagrees with the window", id, at)
			}
		}
	}
	if windows == 0 {
		t.Fatal("no host drew an outage window at fraction 0.5")
	}
}

// TestProbeLossInjects: at high injected loss, probes fail with
// ErrProbeLost, charge simulated timeout, and are classified transient.
func TestProbeLossInjects(t *testing.T) {
	n := faultNet(t, 5)
	n.SetFaults(FaultConfig{ProbeLoss: 0.9})
	rng := rand.New(rand.NewSource(3))
	clk := &Clock{}
	lost := 0
	for i := 0; i < 40; i++ {
		_, err := n.Probe("ff-client", "ff-lm-paris", 80, rng, clk)
		if err != nil {
			if !errors.Is(err, ErrProbeLost) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			if !Transient(err) {
				t.Fatalf("injected loss must be transient: %v", err)
			}
			lost++
		}
	}
	if lost < 20 {
		t.Errorf("only %d/40 probes lost at 90%% injected loss", lost)
	}
	if clk.NowMs() < float64(lost)*LostProbeTimeoutMs {
		t.Errorf("clock %v did not charge %d lost-probe timeouts", clk.NowMs(), lost)
	}
}

// TestSessionDisconnectDraw: the disconnect fate is one draw per armed
// session, inside the horizon, and ErrProxyDisconnected is terminal.
func TestSessionDisconnectDraw(t *testing.T) {
	n := faultNet(t, 9)
	n.SetFaults(FaultConfig{DisconnectProb: 1.0})
	rng := rand.New(rand.NewSource(4))
	at, ok := n.SessionDisconnectMs(rng)
	if !ok {
		t.Fatal("probability 1.0 must disconnect")
	}
	if at < 0 || at >= n.Faults().Horizon() {
		t.Errorf("disconnect at %v outside horizon", at)
	}
	if Transient(ErrProxyDisconnected) {
		t.Error("a mid-session disconnect must not be classified transient")
	}
	n.SetFaults(FaultConfig{})
	if _, ok := n.SessionDisconnectMs(rng); ok {
		t.Error("disarmed config must never disconnect")
	}
}

// TestClockNilSafe: a nil clock pins the session to time zero.
func TestClockNilSafe(t *testing.T) {
	var clk *Clock
	if clk.NowMs() != 0 {
		t.Error("nil clock time != 0")
	}
	clk.Advance(100) // must not panic
	c := &Clock{}
	c.Advance(5)
	c.Advance(-3)
	if c.NowMs() != 5 {
		t.Errorf("clock = %v, want 5 (negative advance ignored)", c.NowMs())
	}
}

// TestDefaultFaults: the documented profile arms all four models in
// proportion to the loss rate, and zero loss disarms everything.
func TestDefaultFaults(t *testing.T) {
	if DefaultFaults(0).Enabled() {
		t.Error("DefaultFaults(0) must be disabled")
	}
	cfg := DefaultFaults(0.1)
	if !cfg.Enabled() || cfg.ProbeLoss != 0.1 || cfg.OutageFraction != 0.05 ||
		cfg.DisconnectProb != 0.025 || cfg.SpikeProb != 0.1 {
		t.Errorf("DefaultFaults(0.1) = %+v", cfg)
	}
}
