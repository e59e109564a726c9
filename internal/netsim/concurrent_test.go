package netsim

import (
	"fmt"
	"sync"
	"testing"

	"activegeo/internal/geo"
)

// underWriters runs work while one goroutine cycles the network
// through every combination of the two fault configurations and one
// congestion episode, with SetFaults, StartCongestion and the stop
// handle, and returns when work and the writer are done.
func underWriters(n *Network, faults [2]FaultConfig, ep CongestionEpisode, work func()) {
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			n.SetFaults(faults[1])
			stop := n.StartCongestion(ep)
			n.SetFaults(faults[0])
			stop()
		}
	}()
	work()
	close(done)
	writer.Wait()
}

// inParallel runs fn(0), …, fn(workers−1) on their own goroutines.
func inParallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// writerCall is one measurement of TestConditionWritersDuringMeasurement:
// a sample or a probe of one pair from a fresh stream and clock.
type writerCall struct {
	from, to HostID
	probe    bool
	seed     int64
	atMs     float64
}

// run performs the call and renders its outcome: value bits, error and
// the clock it leaves.
func (c writerCall) run(n *Network) string {
	rng := NewRand(c.seed)
	p := n.Path(c.from, c.to)
	if !c.probe {
		return outcome(p.SampleRTTMs(rng))
	}
	clk := &Clock{}
	clk.Advance(c.atMs)
	v, err := p.Probe(80, rng, clk)
	return fmt.Sprintf("%s@%x", outcome(v, err), clk.NowMs())
}

// TestConditionWritersDuringMeasurement: while one goroutine swaps the
// fault configuration and starts and stops a congestion episode, every
// concurrent sample and probe returns what it returns serially under
// one whole state: some fault configuration and some episode set, never
// a mix. And while the writers only publish the zero state, long-lived
// streams draw exactly what a serial run draws.
func TestConditionWritersDuringMeasurement(t *testing.T) {
	faults := [2]FaultConfig{{}, {ProbeLoss: 0.4, OutageFraction: 0.5, SpikeProb: 0.5, HorizonMs: 5000}}
	ep := CongestionEpisode{
		Area:              geo.Cap{Center: geo.Point{Lat: 50.11, Lon: 8.68}, RadiusKm: 300},
		ExtraBaseMs:       50,
		ExtraJitterMeanMs: 20,
	}
	ids := pathTestIDs[:len(pathTestIDs)-1]
	var calls []writerCall
	for i, a := range ids {
		for j, b := range ids {
			for k := 0; k < 4; k++ {
				calls = append(calls, writerCall{from: a, to: b, probe: k%2 == 1,
					seed: int64(1000*i + 10*j + k), atMs: float64((137 * (i + j + k)) % 5000)})
			}
		}
	}

	n := pathTestNet(t, 7)
	allowed := make([]map[string]bool, len(calls))
	for i := range allowed {
		allowed[i] = map[string]bool{}
	}
	for _, cfg := range faults {
		n.SetFaults(cfg)
		for _, on := range []bool{false, true} {
			stop := func() {}
			if on {
				stop = n.StartCongestion(ep)
			}
			for i, c := range calls {
				allowed[i][c.run(n)] = true
			}
			stop()
		}
	}
	n.SetFaults(faults[0])

	const workers = 4
	got := make([]string, len(calls))
	underWriters(n, faults, ep, func() {
		inParallel(workers, func(w int) {
			for i := w; i < len(calls); i += workers {
				got[i] = calls[i].run(n)
			}
		})
	})
	for i, c := range calls {
		if !allowed[i][got[i]] {
			t.Errorf("%+v: %s is no whole state's outcome (serial: %v)", c, got[i], allowed[i])
		}
	}

	// Zero-state churn: every published snapshot holds no faults and
	// only an episode far from every host.
	far := CongestionEpisode{Area: geo.Cap{Center: geo.Point{Lat: -85, Lon: 0}, RadiusKm: 100}, ExtraBaseMs: 500}
	serial, concurrent := make([][]string, workers), make([][]string, workers)
	for w := range serial {
		serial[w] = workerDraws(n, ids, w)
	}
	underWriters(n, [2]FaultConfig{}, far, func() {
		inParallel(workers, func(w int) { concurrent[w] = workerDraws(n, ids, w) })
	})
	for w := range serial {
		for i := range serial[w] {
			if serial[w][i] != concurrent[w][i] {
				t.Fatalf("worker %d call %d: %s under concurrent writers, %s serially", w, i, concurrent[w][i], serial[w][i])
			}
		}
	}
}

// workerDraws samples and probes every pair from worker w's one
// long-lived stream and clock, recording each outcome.
func workerDraws(n *Network, ids []HostID, w int) []string {
	rng := NewRand(int64(w))
	clk := &Clock{}
	var out []string
	for _, a := range ids {
		for _, b := range ids {
			p := n.Path(a, b)
			out = append(out, outcome(p.SampleRTTMs(rng)), outcome(p.Probe(80, rng, clk)))
		}
	}
	return out
}
