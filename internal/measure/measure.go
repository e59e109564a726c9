// Package measure implements the paper's measurement machinery (§4):
//
//   - the command-line tool: a TCP connection to port 80, timed from SYN
//     to SYN-ACK/RST, measuring exactly one round trip;
//   - the Web-based tool: fetch() of an HTTPS URL at port 80, measuring
//     one or two round trips depending on whether the landmark listens on
//     port 80 — plus the heavy Windows/browser noise quantified in §4.3;
//   - the two-phase procedure (§4.1): three anchors per continent to
//     deduce the continent, then 25 random same-continent landmarks;
//   - the proxy adaptation (§5.3): measuring through a proxy and removing
//     the client↔proxy RTT estimated by pinging oneself through the
//     proxy, A = B − ηC.
//
// A parallel real-network implementation of the command-line tool's
// primitive (TCP connect RTT over package net) lives in tcp.go.
package measure

import (
	"errors"
	"fmt"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// Sample is one raw tool observation against a landmark.
type Sample struct {
	LandmarkID netsim.HostID
	Landmark   geo.Point
	RTTms      float64
	// Trips is how many round trips the observation actually spans: the
	// CLI tool always measures 1; the web tool measures 1 or 2 and
	// cannot tell which (§4.2), recorded here as 2 when the landmark
	// listened on port 80 — test code may inspect it, algorithms must
	// not.
	Trips int
}

// Measurements converts samples to algorithm inputs.
func Measurements(samples []Sample) []geoloc.Measurement {
	out := make([]geoloc.Measurement, len(samples))
	for i, s := range samples {
		out[i] = geoloc.Measurement{
			LandmarkID: s.LandmarkID,
			Landmark:   s.Landmark,
			RTTms:      s.RTTms,
		}
	}
	return out
}

// Tool measures the round-trip time from a client host to a landmark.
type Tool interface {
	Measure(from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error)
}

// HTTPPort is the TCP port both tools probe: the usual port for
// unencrypted HTTP, the only port reliably unfiltered (§4.2).
const HTTPPort = 80

// CLITool is the standalone command-line measurement program: a TCP
// connection to port 80, timed to the first round trip, repeated
// Attempts times keeping the minimum.
type CLITool struct {
	Net      *netsim.Network
	Attempts int // default 3
	// Clock, when set, is advanced by the simulated time each probe
	// consumes (nil pins the session to time zero).
	Clock *netsim.Clock
}

// attempts is a tool's Attempts setting, 3 when unset.
func attempts(n int) int {
	if n < 1 {
		return 3
	}
	return n
}

// Measure implements Tool.
func (t *CLITool) Measure(from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	leg := t.Net.Path(from, lm.Host.ID)
	best := -1.0
	for i := 0; i < attempts(t.Attempts); i++ {
		rtt, err := leg.Probe(HTTPPort, rng, t.Clock)
		if err != nil {
			return Sample{}, fmt.Errorf("measure: cli %s→%s: %w", from, lm.Host.ID, err)
		}
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	return Sample{LandmarkID: lm.Host.ID, Landmark: lm.Host.Loc, RTTms: best, Trips: 1}, nil
}

// OS is the client operating system of the web tool; §4.3 found it
// changes the noise floor dramatically.
type OS int

// Supported client platforms.
const (
	Linux OS = iota
	Windows
)

// Browser shapes the web tool's high-outlier behaviour (§4.3, Figure 6:
// outlier magnitude depends primarily on the browser).
type Browser int

// Browsers exercised in the paper's Figures 4–6.
const (
	Chrome Browser = iota
	Firefox
	Edge
)

// webNoise returns per-measurement additive noise and the high-outlier
// distribution parameters for an OS/browser combination, in ms.
func webNoise(os OS, br Browser) (jitterMs, outlierProb, outlierMeanMs float64) {
	if os == Linux {
		// Modern JS engines measure almost as cleanly as the CLI tool
		// ("a testament to the efficiency of modern JavaScript
		// interpreters").
		return 1.5, 0, 0
	}
	switch br {
	case Chrome:
		return 18, 0.06, 700
	case Firefox:
		return 22, 0.08, 1100
	default: // Edge
		return 25, 0.10, 1600
	}
}

// WebTool is the browser-based measurement application. It requests
// https:// on port 80; if the landmark listens there, the browser only
// reports failure after the TLS ClientHello triggers a protocol error —
// a second round trip the tool cannot distinguish from the first.
type WebTool struct {
	Net      *netsim.Network
	OS       OS
	Browser  Browser
	Attempts int // default 3
	// Clock, when set, is advanced by the simulated time each probe
	// consumes (nil pins the session to time zero).
	Clock *netsim.Clock
}

// Measure implements Tool.
func (t *WebTool) Measure(from netsim.HostID, lm *atlas.Landmark, rng *rand.Rand) (Sample, error) {
	jitter, outlierProb, outlierMean := webNoise(t.OS, t.Browser)
	// Port 80 is read from the host probed: a served landmark's
	// description does not carry it.
	leg := t.Net.Path(from, lm.Host.ID)
	trips := 1
	if leg.ListensHTTP() {
		trips = 2
	}
	best := -1.0
	for i := 0; i < attempts(t.Attempts); i++ {
		rtt, err := leg.Probe(HTTPPort, rng, t.Clock)
		if err != nil {
			return Sample{}, fmt.Errorf("measure: web %s→%s: %w", from, lm.Host.ID, err)
		}
		if trips == 2 {
			extra, err := leg.Probe(HTTPPort, rng, t.Clock)
			if err != nil {
				return Sample{}, fmt.Errorf("measure: web %s→%s: %w", from, lm.Host.ID, err)
			}
			rtt += extra
		}
		rtt += rng.ExpFloat64() * jitter
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	// High outliers survive even min-of-k on Windows: they are a
	// property of the browser's scheduling, not of single packets.
	if outlierProb > 0 && rng.Float64() < outlierProb {
		best += outlierMean * (0.5 + rng.ExpFloat64())
	}
	return Sample{LandmarkID: lm.Host.ID, Landmark: lm.Host.Loc, RTTms: best, Trips: trips}, nil
}

// Source is where a two-phase campaign draws its landmark sets: up to
// n landmarks on continent cont from phase ph's pool. A
// *atlas.Constellation draws locally with rng; atlasd's client Source
// fetches the server's draw. An error ends the campaign.
type Source interface {
	Draw(ph atlas.Phase, cont worldmap.Continent, n int, rng *rand.Rand) ([]*atlas.Landmark, error)
}

// TwoPhase is the §4.1 measurement procedure.
type TwoPhase struct {
	Cons Source // a constellation, or atlasd's client Source
	Tool Tool
	// PerContinent is the number of anchors measured per continent in
	// phase one (paper: 3).
	PerContinent int
	// SecondPhase is the number of same-continent landmarks measured in
	// phase two (paper: 25).
	SecondPhase int
	// Session, when set, routes every landmark measurement through the
	// resilient path (retries, backoff, deadline budgets, degradation
	// accounting); nil keeps the historical fault-free code path.
	Session *Session
}

// Result is a completed two-phase measurement.
type Result struct {
	Continent worldmap.Continent
	Phase1    []Sample
	Phase2    []Sample
	// Deg is the degradation ledger of a resilient campaign (nil when
	// the measurement ran on the fault-free path).
	Deg *Degradation
}

// Samples returns both phases' samples.
func (r *Result) Samples() []Sample {
	out := make([]Sample, 0, len(r.Phase1)+len(r.Phase2))
	out = append(out, r.Phase1...)
	out = append(out, r.Phase2...)
	return out
}

// Measurements returns both phases as algorithm inputs.
func (r *Result) Measurements() []geoloc.Measurement {
	return Measurements(r.Samples())
}

// ErrNoLandmarks is returned when the constellation has no usable
// landmarks for a phase.
var ErrNoLandmarks = errors.New("measure: no usable landmarks")

// Run executes the two-phase procedure for a client (or proxy) host,
// and seals the resilient session's ledger, if any, into the result.
func (tp *TwoPhase) Run(from netsim.HostID, rng *rand.Rand) (*Result, error) {
	res, err := tp.run(from, rng)
	tp.Session.finish()
	if err == nil && tp.Session != nil {
		res.Deg = &tp.Session.Deg
	}
	return res, err
}

// run is Run before the ledger is sealed. Phase one asks the source for
// each continent's anchors just before measuring them, so a local draw
// interleaves each continent's rng.Perm with its measurements.
func (tp *TwoPhase) run(from netsim.HostID, rng *rand.Rand) (*Result, error) {
	perCont := tp.PerContinent
	if perCont < 1 {
		perCont = 3
	}
	second := tp.SecondPhase
	if second < 1 {
		second = 25
	}

	// Phase one: a few widely dispersed anchors per continent.
	res := &Result{}
	bestRTT := -1.0
	bestCont := worldmap.Europe
	for _, cont := range worldmap.AllContinents() {
		lms, err := tp.Cons.Draw(atlas.Phase1, cont, perCont, rng)
		if err != nil {
			return nil, err
		}
		for _, lm := range lms {
			s, err := tp.Session.route(tp.Tool, from, lm, rng)
			if err != nil {
				continue // unreachable landmark: skip, like the real tool
			}
			res.Phase1 = append(res.Phase1, s)
			if bestRTT < 0 || s.RTTms < bestRTT {
				bestRTT, bestCont = s.RTTms, cont
			}
		}
	}
	if len(res.Phase1) == 0 {
		return nil, ErrNoLandmarks
	}
	res.Continent = bestCont

	// Phase two: random landmarks (anchors + stable probes) on the
	// deduced continent.
	lms, err := tp.Cons.Draw(atlas.Phase2, bestCont, second, rng)
	if err != nil {
		return nil, err
	}
	for _, lm := range lms {
		s, err := tp.Session.route(tp.Tool, from, lm, rng)
		if err != nil {
			continue
		}
		res.Phase2 = append(res.Phase2, s)
	}
	return res, nil
}
