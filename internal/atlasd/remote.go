package atlasd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// uploadAttempts bounds shed-retries for one remote campaign's calls.
const uploadAttempts = 50

// ErrUnknownContinent is returned by a Source for a served landmark
// whose continent name worldmap.ParseContinent does not know.
var ErrUnknownContinent = errors.New("atlasd: unknown continent")

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

// RemoteTwoPhase runs the §4.1 procedure the way the paper's tools ran
// it: measure.TwoPhase over the server's landmark draws for the draw key
// client|seq (deterministic per campaign, at any concurrency), measured
// locally with tool; then it fetches the phase-two landmarks' models and
// reports the samples under the idempotent (client, seq) key. Shed
// responses (429) are retried with backoff; a draining server (503) is
// terminal.
func RemoteTwoPhase(ctx context.Context, c *Client, tool measure.Tool, from netsim.HostID, secondPhase int, seq int64, rng *rand.Rand) (*RemoteResult, error) {
	tp := &measure.TwoPhase{Cons: c.Source(ctx, fmt.Sprintf("%s|%d", from, seq)), Tool: tool, SecondPhase: secondPhase}
	mres, err := tp.Run(from, rng)
	if err != nil {
		return nil, err
	}
	res := &RemoteResult{Result: mres, Models: make(map[string]ModelInfo, len(mres.Phase2)), Seq: seq}
	// The paper's tools need each landmark's delay-distance model to
	// turn the RTT into a distance bound; fetch it from the coalesced
	// model cache like they do.
	for _, s := range res.Phase2 {
		id := string(s.LandmarkID)
		m, err := retried(ctx, func() (*ModelInfo, error) { return c.Model(ctx, id) })
		if err != nil {
			return nil, fmt.Errorf("atlasd: model for %s: %w", id, err)
		}
		res.Models[id] = *m
	}

	// Report everything back (Run measured at least one sample) under
	// the sequence key, so a shed-and-retried upload cannot double-ledger.
	rep := Report{Client: string(from), Seq: seq}
	for _, s := range res.Samples() {
		rep.Samples = append(rep.Samples, ReportSample{LandmarkID: string(s.LandmarkID), RTTms: s.RTTms})
	}
	if err := Retry(ctx, uploadAttempts, func() error { return c.Upload(ctx, rep) }); err != nil {
		return nil, fmt.Errorf("atlasd: uploading report: %w", err)
	}
	res.Accepted = true
	return res, nil
}

// retried runs one client call under Retry's shed-aware policy.
func retried[T any](ctx context.Context, call func() (T, error)) (T, error) {
	var out T
	err := Retry(ctx, uploadAttempts, func() error {
		var err error
		out, err = call()
		return err
	})
	return out, err
}

// Source is the served measure.Source: the landmark sets the server
// draws for one campaign's draw key, with atlas.Constellation.Select on
// its own stateless stream, so Draw ignores the caller's rng. The
// phase-one list is fetched on the first phase-one call and handed out
// per continent; each phase-two call fetches its own draw. A fetch that
// fails after shed-retries, or a served landmark on an unknown
// continent (ErrUnknownContinent) or otherwise malformed
// (ErrMalformed), is returned as the campaign's error.
type Source struct {
	ctx    context.Context
	c      *Client
	draw   string
	phase1 map[worldmap.Continent][]*atlas.Landmark // nil until fetched
}

// Source returns the landmark source for one campaign's draw key.
func (c *Client) Source(ctx context.Context, draw string) *Source {
	return &Source{ctx: ctx, c: c, draw: draw}
}

// Draw implements measure.Source.
func (s *Source) Draw(ph atlas.Phase, cont worldmap.Continent, n int, _ *rand.Rand) ([]*atlas.Landmark, error) {
	byCont := s.phase1
	if ph == atlas.Phase2 || byCont == nil {
		var err error
		if byCont, err = s.fetch(ph, cont, n); err != nil {
			return nil, fmt.Errorf("atlasd: phase %d landmarks: %w", ph, err)
		}
		if ph == atlas.Phase1 {
			s.phase1 = byCont
		}
	}
	lms := byCont[cont]
	return lms[:min(n, len(lms))], nil
}

// fetch fetches one served draw and groups it by continent, holding it
// to the draw's contract: phase one serves anchors, phase two only
// landmarks on cont.
func (s *Source) fetch(ph atlas.Phase, cont worldmap.Continent, n int) (map[worldmap.Continent][]*atlas.Landmark, error) {
	path := fmt.Sprintf("/v1/landmarks/phase1?n=%d&draw=%s", n, url.QueryEscape(s.draw))
	if ph == atlas.Phase2 {
		path = fmt.Sprintf("/v1/landmarks/phase2?continent=%s&n=%d&draw=%s", url.QueryEscape(cont.String()), n, url.QueryEscape(s.draw))
	}
	infos, err := retried(s.ctx, func() ([]LandmarkInfo, error) {
		var out []LandmarkInfo
		err := s.c.get(s.ctx, path, &out)
		return out, err
	})
	if err != nil {
		return nil, err
	}
	byCont := make(map[worldmap.Continent][]*atlas.Landmark)
	for _, info := range infos {
		at, ok := worldmap.ParseContinent(info.Continent)
		if !ok {
			return nil, fmt.Errorf("%w %q (landmark %s)", ErrUnknownContinent, info.Continent, info.ID)
		}
		loc := geo.Point{Lat: info.Lat, Lon: info.Lon}
		if info.ID == "" || !loc.Valid() || (ph == atlas.Phase1 && !info.Anchor) || (ph == atlas.Phase2 && at != cont) {
			return nil, fmt.Errorf("%w: %+v", ErrMalformed, info)
		}
		// Only the ID reaches the simulated network, which resolves it
		// to the landmark's own host; algorithms see the location.
		h := &netsim.Host{ID: netsim.HostID(info.ID), Addr: info.Addr, Loc: loc}
		byCont[at] = append(byCont[at], &atlas.Landmark{Host: h, IsAnchor: info.Anchor})
	}
	return byCont, nil
}
