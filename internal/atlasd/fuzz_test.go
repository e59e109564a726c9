package atlasd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// The fuzz fixture is deliberately tiny — fuzzing throughput matters
// more than landmark realism — and shared by all three targets. The
// server is safe for concurrent use, and fuzz workers run in separate
// processes anyway, so one per process is enough.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzMux  http.Handler
	fuzzID   string // one known-good landmark id
)

func fuzzServer() (http.Handler, *Server) {
	fuzzOnce.Do(func() {
		net := netsim.New(7)
		rng := rand.New(rand.NewSource(7))
		cons, err := atlas.Build(net, atlas.Config{Anchors: 12, Probes: 8, SamplesPerPair: 2}, rng)
		if err != nil {
			panic(err)
		}
		fuzzSrv = NewServer(cons, Config{Seed: 7, Opts: cbg.Options{Slowline: true}})
		fuzzMux = fuzzSrv.Handler()
		fuzzID = string(cons.All()[0].Host.ID)
	})
	return fuzzMux, fuzzSrv
}

// serveRaw drives the full middleware-wrapped handler tree with a
// hand-built request, bypassing http.NewRequest's URL validation so
// the fuzzer can reach the handlers with inputs a hostile client could
// send down a raw socket.
func serveRaw(h http.Handler, method, path, rawQuery string, body []byte) *httptest.ResponseRecorder {
	req := &http.Request{
		Method: method,
		URL:    &url.URL{Path: path, RawQuery: rawQuery},
		Header: make(http.Header),
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzPhase2Query throws arbitrary continent/n/draw query strings at
// /v1/landmarks/phase2. Invariants: the handler never panics, answers
// only 200/400/404, any 200 body is well-formed JSON whose landmarks
// all belong to the requested continent, and the response is a pure
// function of the query — replaying the same request yields the same
// bytes.
func FuzzPhase2Query(f *testing.F) {
	f.Add("Europe", "5", "client-a|1")
	f.Add("Europe", "1", "")
	f.Add("Atlantis", "5", "x")         // unknown continent
	f.Add("", "5", "x")                 // missing continent
	f.Add("Europe", "-3", "x")          // n < 0
	f.Add("Europe", "0", "x")           // n below range
	f.Add("Europe", "501", "x")         // n above range
	f.Add("Europe", "fifty", "x")       // non-numeric n
	f.Add("Europe", "5;drop", "draw=1") // query metacharacters
	f.Add("North America", "25", "\x00\xff")

	h, _ := fuzzServer()
	f.Fuzz(func(t *testing.T, continent, n, draw string) {
		q := url.Values{}
		if continent != "" {
			q.Set("continent", continent)
		}
		if n != "" {
			q.Set("n", n)
		}
		if draw != "" {
			q.Set("draw", draw)
		}
		rec := serveRaw(h, http.MethodGet, "/v1/landmarks/phase2", q.Encode(), nil)
		switch rec.Code {
		case http.StatusOK:
			var out []LandmarkInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with malformed body: %v", err)
			}
			if len(out) == 0 {
				t.Fatal("200 with zero landmarks")
			}
			for _, lm := range out {
				if lm.ID == "" || math.IsNaN(lm.Lat) || math.IsNaN(lm.Lon) {
					t.Fatalf("bad landmark in 200 response: %+v", lm)
				}
			}
		case http.StatusBadRequest, http.StatusNotFound:
			// rejected — fine
		default:
			t.Fatalf("unexpected status %d for %q", rec.Code, q.Encode())
		}
		again := serveRaw(h, http.MethodGet, "/v1/landmarks/phase2", q.Encode(), nil)
		if !bytes.Equal(rec.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("replaying %q changed the response", q.Encode())
		}
	})
}

// FuzzModelPath throws arbitrary landmark ids at /v1/model/. 200 means
// a finite, positive-slope model for exactly the requested id; anything
// else must be a clean 400/404 (or the mux's 301 path canonicalisation
// for ids with embedded slashes/dots), never a panic or a 500.
func FuzzModelPath(f *testing.F) {
	h, srv := fuzzServer()
	f.Add(fuzzID)
	f.Add("")
	f.Add("no-such-landmark")
	f.Add("../../etc/passwd")
	f.Add(fuzzID + "/extra")
	f.Add("a\x00b")
	f.Add("..")

	f.Fuzz(func(t *testing.T, id string) {
		rec := serveRaw(h, http.MethodGet, "/v1/model/"+id, "", nil)
		switch rec.Code {
		case http.StatusOK:
			var m ModelInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
				t.Fatalf("200 with malformed body: %v", err)
			}
			if m.LandmarkID != id {
				t.Fatalf("asked for %q, got model for %q", id, m.LandmarkID)
			}
			if !(m.SlopeMsPerKm > 0) || math.IsNaN(m.InterceptMs) || math.IsInf(m.InterceptMs, 0) {
				t.Fatalf("degenerate model: %+v", m)
			}
			if m.Epoch != srv.Epoch() {
				t.Fatalf("model from epoch %d, server at %d", m.Epoch, srv.Epoch())
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusMovedPermanently:
			// rejected or path-canonicalised — fine
		default:
			t.Fatalf("unexpected status %d for id %q", rec.Code, id)
		}
	})
}

// FuzzReportDecode throws arbitrary bodies at POST /v1/report. The
// server must answer 202 or 400 without panicking, and the ledger may
// only grow on 202 — a rejected body never leaves partial state.
func FuzzReportDecode(f *testing.F) {
	h, srv := fuzzServer()
	good := func(seq int64) []byte {
		rep := Report{
			Client: "fuzz-client",
			Seq:    seq,
			Samples: []ReportSample{
				{LandmarkID: fuzzID, RTTms: 42.5},
			},
		}
		b, err := json.Marshal(rep)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add(good(1))
	f.Add(good(0))
	f.Add([]byte(`{"client":"c","seq":-1,"samples":[{"landmark_id":"` + fuzzID + `","rtt_ms":1}]}`))     // negative seq
	f.Add([]byte(`{"client":"c","samples":[{"landmark_id":"nope","rtt_ms":1}]}`))                        // unknown landmark
	f.Add([]byte(`{"client":"c","samples":[{"landmark_id":"` + fuzzID + `","rtt_ms":-3}]}`))             // non-positive RTT
	f.Add([]byte(`{"client":"c","samples":[]}`))                                                         // no samples
	f.Add([]byte(`{"client":"c","samples":[{"landmark_id":"` + fuzzID + `","rtt_ms":1}`))                // truncated JSON
	f.Add([]byte(`{"client":"c","client":"d","samples":[{"landmark_id":"` + fuzzID + `","rtt_ms":1}]}`)) // duplicate field
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\x01\x02"))

	f.Fuzz(func(t *testing.T, body []byte) {
		before := len(srv.Reports())
		rec := serveRaw(h, http.MethodPost, "/v1/report", "", body)
		after := len(srv.Reports())
		switch rec.Code {
		case http.StatusAccepted:
			var receipt map[string]int
			if err := json.Unmarshal(rec.Body.Bytes(), &receipt); err != nil {
				t.Fatalf("202 with malformed receipt: %v", err)
			}
			if receipt["accepted"] < 1 {
				t.Fatalf("202 accepting %d samples", receipt["accepted"])
			}
			// after == before is legal: an idempotent duplicate receipt.
			if after < before || after > before+1 {
				t.Fatalf("ledger went %d -> %d on one upload", before, after)
			}
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("rejected body still grew the ledger: %d -> %d", before, after)
			}
		default:
			t.Fatalf("unexpected status %d for %q", rec.Code, body)
		}
	})
}

// handlerTransport serves a Client's requests straight from a handler,
// in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// stubClient is a Client of a stub server that answers the phase-one
// and phase-two landmark routes with fixed bodies.
func stubClient(phase1, phase2 []byte) *Client {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/landmarks/phase1", func(w http.ResponseWriter, _ *http.Request) { w.Write(phase1) })
	mux.HandleFunc("/v1/landmarks/phase2", func(w http.ResponseWriter, _ *http.Request) { w.Write(phase2) })
	return &Client{BaseURL: "http://stub", HTTPClient: &http.Client{Transport: handlerTransport{mux}}}
}

// FuzzServedLandmarks serves arbitrary phase-one and phase-two bodies
// to a client Source. Invariants: Draw never panics; every success
// returns at most n landmarks, each with an ID, a valid location and a
// served description on the continent asked for (anchors only in phase
// one); every failure is ErrUnknownContinent or ErrMalformed; and a
// decodable list naming an unknown continent never succeeds.
func FuzzServedLandmarks(f *testing.F) {
	good := `[{"id":"a","addr":"192.0.2.1","lat":52.5,"lon":13.4,"continent":"Europe","anchor":true}]`
	f.Add([]byte(good), []byte(good))
	f.Add([]byte(`[{"id":"a","lat":1,"lon":1,"continent":"Atlantis","anchor":true}]`), []byte(good))
	f.Add([]byte(good), []byte(`[{"id":"b","lat":1,"lon":1,"continent":"Asia"}]`))
	f.Add([]byte(`[{"id":"a","lat":91,"lon":1,"continent":"europe","anchor":true}]`), []byte(`null`))
	f.Add([]byte(`[{"id":"p","lat":1,"lon":1,"continent":"Asia"}]`), []byte(`[{"id":"","lat":1,"lon":1,"continent":"Europe"}]`))
	f.Add([]byte(`{"id":"a"}`), []byte(`[1,2`))
	f.Add([]byte(``), []byte(`[{"lat":"x"}]`))

	f.Fuzz(func(t *testing.T, phase1, phase2 []byte) {
		src := stubClient(phase1, phase2).Source(context.Background(), "fuzz|1")
		check := func(ph atlas.Phase, cont worldmap.Continent, body []byte) {
			const n = 3
			lms, err := src.Draw(ph, cont, n, nil)
			var infos []LandmarkInfo
			decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&infos) == nil
			if err != nil {
				if !errors.Is(err, ErrUnknownContinent) && !errors.Is(err, ErrMalformed) {
					t.Fatalf("phase %d %v: untyped error %v", ph, cont, err)
				}
				return
			}
			for _, info := range infos {
				if _, ok := worldmap.ParseContinent(info.Continent); decoded && !ok {
					t.Fatalf("phase %d %v: succeeded over unknown continent %q", ph, cont, info.Continent)
				}
			}
			if len(lms) > n {
				t.Fatalf("phase %d %v: %d landmarks for n=%d", ph, cont, len(lms), n)
			}
			for _, lm := range lms {
				if lm.Host.ID == "" || !lm.Host.Loc.Valid() || (ph == atlas.Phase1 && !lm.IsAnchor) {
					t.Fatalf("phase %d %v: bad landmark %+v (anchor %v)", ph, cont, lm.Host, lm.IsAnchor)
				}
				onCont := false
				for _, info := range infos {
					c, ok := worldmap.ParseContinent(info.Continent)
					onCont = onCont || (ok && c == cont && netsim.HostID(info.ID) == lm.Host.ID)
				}
				if !onCont {
					t.Fatalf("phase %d: landmark %s not served on %v", ph, lm.Host.ID, cont)
				}
			}
		}
		for _, cont := range worldmap.AllContinents() {
			check(atlas.Phase1, cont, phase1)
		}
		check(atlas.Phase2, worldmap.Europe, phase2)
	})
}
