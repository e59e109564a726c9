package atlasd

import (
	"context"
	"fmt"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// uploadAttempts bounds shed-retries for one remote campaign's calls.
const uploadAttempts = 50

// RemoteResult is a two-phase measurement run driven through the
// coordination server: the measured samples plus the delay-distance
// models the server handed out for the phase-two landmarks.
type RemoteResult struct {
	*measure.Result
	// Models maps phase-two landmark IDs to the served bestline model.
	Models map[string]ModelInfo
	// Seq is the report sequence number this campaign uploaded under.
	Seq int64
	// Accepted is true once the server acknowledged the report (202).
	Accepted bool
}

// RemoteTwoPhase runs the §4.1 two-phase procedure the way the paper's
// tools actually ran it: landmark sets come from the coordination
// server over HTTP (keyed by this client's draw key, so the selection
// is deterministic per client and campaign, at any concurrency),
// measurements are taken locally with the given tool, the phase-two
// landmarks' delay-distance models are fetched, and the results are
// reported back under an idempotent (client, seq) key.
//
// Shed responses (429, bounded admission) are retried with backoff; a
// draining server (503) is terminal. Measurement failures skip the
// landmark, like the real tool.
func RemoteTwoPhase(ctx context.Context, c *Client, tool measure.Tool, from netsim.HostID, secondPhase int, seq int64, rng *rand.Rand) (*RemoteResult, error) {
	if secondPhase < 1 {
		secondPhase = 25
	}
	draw := fmt.Sprintf("%s|%d", from, seq)

	var p1 []LandmarkInfo
	err := Retry(ctx, uploadAttempts, func() error {
		var err error
		p1, err = c.Phase1Landmarks(ctx, draw)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("atlasd: phase 1 landmarks: %w", err)
	}
	res := &RemoteResult{Result: &measure.Result{}, Models: make(map[string]ModelInfo), Seq: seq}
	bestRTT := -1.0
	bestCont := ""
	for _, info := range p1 {
		s, err := measureInfo(tool, from, info, rng)
		if err != nil {
			continue
		}
		res.Phase1 = append(res.Phase1, s)
		if bestRTT < 0 || s.RTTms < bestRTT {
			bestRTT, bestCont = s.RTTms, info.Continent
		}
	}
	if len(res.Phase1) == 0 {
		return nil, measure.ErrNoLandmarks
	}
	res.Continent = continentValue(bestCont)

	var p2 []LandmarkInfo
	err = Retry(ctx, uploadAttempts, func() error {
		var err error
		p2, err = c.Phase2Landmarks(ctx, bestCont, secondPhase, draw)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("atlasd: phase 2 landmarks: %w", err)
	}
	for _, info := range p2 {
		s, err := measureInfo(tool, from, info, rng)
		if err != nil {
			continue
		}
		res.Phase2 = append(res.Phase2, s)
		// The paper's tools need each landmark's delay-distance model
		// to turn the RTT into a distance bound; fetch it from the
		// coalesced model cache like they do.
		var m *ModelInfo
		if err := Retry(ctx, uploadAttempts, func() error {
			var err error
			m, err = c.Model(ctx, info.ID)
			return err
		}); err != nil {
			return nil, fmt.Errorf("atlasd: model for %s: %w", info.ID, err)
		}
		res.Models[info.ID] = *m
	}

	// Report everything back, as the real tools do, under an idempotent
	// sequence key so a shed-and-retried upload cannot double-ledger.
	rep := Report{Client: string(from), Seq: seq}
	for _, s := range res.Samples() {
		rep.Samples = append(rep.Samples, ReportSample{LandmarkID: string(s.LandmarkID), RTTms: s.RTTms})
	}
	if len(rep.Samples) > 0 {
		if err := Retry(ctx, uploadAttempts, func() error {
			return c.Upload(ctx, rep)
		}); err != nil {
			return nil, fmt.Errorf("atlasd: uploading report: %w", err)
		}
		res.Accepted = true
	}
	return res, nil
}

// measureInfo adapts a served landmark description back into the shape
// the Tool interface consumes.
func measureInfo(tool measure.Tool, from netsim.HostID, info LandmarkInfo, rng *rand.Rand) (measure.Sample, error) {
	lm := &atlas.Landmark{
		Host: &netsim.Host{
			ID:   netsim.HostID(info.ID),
			Addr: info.Addr,
			Loc:  geo.Point{Lat: info.Lat, Lon: info.Lon},
		},
		IsAnchor: info.Anchor,
	}
	return tool.Measure(from, lm, rng)
}

func continentValue(name string) worldmap.Continent {
	for _, c := range worldmap.AllContinents() {
		if c.String() == name {
			return c
		}
	}
	return worldmap.Europe
}
