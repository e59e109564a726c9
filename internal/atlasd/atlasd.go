// Package atlasd implements the measurement coordination server the
// paper describes in §4.1:
//
//	"We maintain a server that retrieves the list of anchors and probes
//	 from RIPE's database every day, selects the probes to be used as
//	 landmarks, and updates a delay-distance model for each landmark,
//	 based on the most recent two weeks of ping measurements … Our
//	 measurement tools retrieve the set of landmarks to use for each
//	 phase from this server, and report their measurements back to it."
//
// The server speaks JSON over HTTP (net/http only); these six routes
// are its whole API:
//
//	GET  /v1/landmarks/phase1?n=3&draw=K               n anchors per continent
//	GET  /v1/landmarks/phase2?continent=X&n=25&draw=K  same-continent landmarks
//	GET  /v1/model/{landmark-id}                       the landmark's bestline model
//	POST /v1/report                                    upload a measurement batch
//	GET  /v1/metrics                                   per-endpoint observability
//	GET  /v1/healthz                                   liveness + drain state
//
// Landmarks are served with IPv4 addresses only, as the paper's server
// does ("the commercial proxy servers we are studying offer only IPv4
// connectivity").
//
// Neither side has a procedure of its own: the phase handlers select
// with atlas.Constellation.Select and models are fitted with cbg.Fit,
// as local campaigns and cbg.Calibrate do, and a tool's campaign is
// measure.TwoPhase drawing from the client's Source (RemoteTwoPhase).
//
// # Operational properties
//
// The server is built to be driven hard by many concurrent tools:
//
//   - Landmark selection is stateless: every draw is keyed by
//     netsim.HashID over (seed, phase, continent, n, draw-key), so a
//     response is a pure function of the request and the world seed —
//     byte-identical at any concurrency, with no shared RNG stream.
//     Clients spread load across each other by passing distinct draw
//     keys (their client ID and campaign sequence number).
//   - Delay-distance models are fitted lazily, once per landmark per
//     epoch, behind a singleflight cache: concurrent requests for the
//     same landmark coalesce onto one fit (see cache.go).
//   - Admission is bounded: at most MaxInflight measurement-path
//     requests run at once; excess load is shed immediately with
//     429 + Retry-After instead of queueing unboundedly (admission.go).
//   - Shutdown drains: BeginShutdown rejects new work with 503 while
//     Drain waits for in-flight requests — in particular /v1/report
//     batches already admitted — to finish, so every accepted report
//     is ledgered exactly once.
//   - Every endpoint is observable: request/error/shed counters and
//     latency distributions via internal/telemetry, exposed at
//     GET /v1/metrics and as access-log lines (metrics.go).
package atlasd

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activegeo/internal/atlas"
	"activegeo/internal/cbg"
	"activegeo/internal/netsim"
	"activegeo/internal/telemetry"
	"activegeo/internal/worldmap"
)

// LandmarkInfo is the wire representation of one landmark.
type LandmarkInfo struct {
	ID        string  `json:"id"`
	Addr      string  `json:"addr"` // IPv4 only
	Lat       float64 `json:"lat"`
	Lon       float64 `json:"lon"`
	Continent string  `json:"continent"`
	Anchor    bool    `json:"anchor"`
}

// ModelInfo is the wire representation of a landmark's delay-distance
// model (the CBG/CBG++ bestline), fitted in the epoch reported.
type ModelInfo struct {
	LandmarkID   string  `json:"landmark_id"`
	SlopeMsPerKm float64 `json:"slope_ms_per_km"`
	InterceptMs  float64 `json:"intercept_ms"`
	Pooled       bool    `json:"pooled"` // true when the pooled fallback was served
	Epoch        int64   `json:"epoch"`
}

// Report is a measurement batch uploaded by a tool. A non-zero Seq
// makes the upload idempotent: the server ledgers each (client, seq)
// pair exactly once, so a tool may safely retry after a shed or a
// dropped connection.
type Report struct {
	Client  string         `json:"client"`
	Seq     int64          `json:"seq,omitempty"`
	Target  string         `json:"target,omitempty"`
	Samples []ReportSample `json:"samples"`
}

// ReportSample is one uploaded measurement.
type ReportSample struct {
	LandmarkID string  `json:"landmark_id"`
	RTTms      float64 `json:"rtt_ms"`
}

// Config tunes a Server. The zero value plus a seed is a working
// configuration.
type Config struct {
	// Seed is the world seed; landmark draws and model identity are
	// pure functions of it.
	Seed int64
	// Opts configures the bestline fits (Slowline for CBG++-compatible
	// models).
	Opts cbg.Options
	// MaxInflight bounds concurrently admitted measurement-path
	// requests (landmarks, models, reports); excess requests are shed
	// with 429. Zero means DefaultMaxInflight.
	MaxInflight int
	// RetryAfterSec is the Retry-After hint sent with 429 responses.
	// Zero means 1.
	RetryAfterSec int
	// Telemetry receives per-endpoint counters and latency
	// distributions. Nil allocates a private collector so /v1/metrics
	// always works.
	Telemetry *telemetry.Collector
	// Log, when non-nil, receives one access-log line per request.
	Log *log.Logger
}

// DefaultMaxInflight is the admission bound when Config.MaxInflight is
// zero: generous for unit tests and single tools, finite for fleets.
const DefaultMaxInflight = 64

// Server coordinates measurements for one constellation.
type Server struct {
	cons   *atlas.Constellation
	cfg    Config
	tel    *telemetry.Collector
	models *modelCache
	epoch  atomic.Int64
	start  time.Time

	sem  chan struct{}
	gate *drainGate

	mu      sync.Mutex
	reports []Report
	seen    map[string]struct{} // client|seq pairs already ledgered
	dupes   int64
}

// NewServer builds a coordination server over a calibrated-mesh
// constellation. Models are fitted lazily on first request (one fit
// per landmark per epoch); nothing is computed up front.
func NewServer(cons *atlas.Constellation, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	s := &Server{
		cons:  cons,
		cfg:   cfg,
		tel:   tel,
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxInflight),
		gate:  newDrainGate(),
		seen:  make(map[string]struct{}),
	}
	s.models = newModelCache(s.fitModel)
	return s
}

// Epoch returns the current model epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// AdvanceEpoch starts a new model epoch: the paper's server refreshes
// its delay-distance models daily, and each refresh invalidates every
// cached fit. Returns the new epoch.
func (s *Server) AdvanceEpoch() int64 {
	e := s.epoch.Add(1)
	s.models.reset()
	return e
}

// Handler returns the HTTP handler tree, with every endpoint wrapped
// in the admission/observability middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/landmarks/phase1", s.instrument("phase1", true, s.handlePhase1))
	mux.HandleFunc("/v1/landmarks/phase2", s.instrument("phase2", true, s.handlePhase2))
	mux.HandleFunc("/v1/model/", s.instrument("model", true, s.handleModel))
	mux.HandleFunc("/v1/report", s.instrument("report", true, s.handleReport))
	mux.HandleFunc("/v1/metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("/v1/healthz", s.instrument("healthz", false, s.handleHealthz))
	return mux
}

// Reports returns a copy of every ledgered report.
func (s *Server) Reports() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Report(nil), s.reports...)
}

// drawRNG derives the stateless selection stream for one request: a
// pure function of (seed, phase, continent, n, draw), so identical
// requests always receive identical responses, at any concurrency.
func (s *Server) drawRNG(phase, continent string, n int, draw string) *rand.Rand {
	key := fmt.Sprintf("%d|%s|%s|%d|%s", s.cfg.Seed, phase, continent, n, draw)
	return netsim.NewRand(int64(netsim.HashID(netsim.HostID(key))))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handlePhase1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	perCont := 3
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 50 {
			httpError(w, http.StatusBadRequest, "bad n")
			return
		}
		perCont = n
	}
	draw := r.URL.Query().Get("draw")
	var out []LandmarkInfo
	for _, cont := range worldmap.AllContinents() {
		rng := s.drawRNG("phase1", cont.String(), perCont, draw)
		for _, lm := range s.cons.Select(atlas.Phase1, cont, perCont, rng) {
			out = append(out, toInfo(lm, cont))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePhase2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	contName := r.URL.Query().Get("continent")
	cont, ok := worldmap.ParseContinent(contName)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown continent %q", contName))
		return
	}
	n := 25
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > 500 {
			httpError(w, http.StatusBadRequest, "bad n")
			return
		}
		n = parsed
	}
	rng := s.drawRNG("phase2", cont.String(), n, r.URL.Query().Get("draw"))
	lms := s.cons.Select(atlas.Phase2, cont, n, rng)
	if len(lms) == 0 {
		httpError(w, http.StatusNotFound, "no landmarks on that continent")
		return
	}
	out := make([]LandmarkInfo, len(lms))
	for i, lm := range lms {
		out[i] = toInfo(lm, cont)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/model/")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing landmark id")
		return
	}
	if s.cons.Landmark(netsim.HostID(id)) == nil {
		httpError(w, http.StatusNotFound, "unknown landmark")
		return
	}
	m, err := s.models.get(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "model fit failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// fitModel is the expensive per-landmark operation the cache coalesces:
// cbg.Fit over the landmark's mesh, or the pooled line (fitted once per
// epoch under pooledKey) without one — cbg.Calibrate's Line for it.
func (s *Server) fitModel(id string) (ModelInfo, error) {
	m := ModelInfo{LandmarkID: id, Epoch: s.epoch.Load()}
	if id == pooledKey {
		line, err := cbg.Fit(s.cons.Pooled(), s.cfg.Opts)
		if err != nil {
			return ModelInfo{}, fmt.Errorf("pooled fit: %w", err)
		}
		m.SlopeMsPerKm, m.InterceptMs, m.Pooled = line.Slope, line.Intercept, true
		return m, nil
	}
	lm := s.cons.Landmark(netsim.HostID(id))
	if lm == nil {
		return ModelInfo{}, fmt.Errorf("unknown landmark %s", id)
	}
	if pts := s.cons.Calibration(lm.Host.ID); len(pts) > 0 {
		line, err := cbg.Fit(pts, s.cfg.Opts)
		if err != nil {
			return ModelInfo{}, err
		}
		m.SlopeMsPerKm, m.InterceptMs = line.Slope, line.Intercept
		return m, nil
	}
	pooled, err := s.models.get(pooledKey)
	if err != nil {
		return ModelInfo{}, err
	}
	m.SlopeMsPerKm, m.InterceptMs = pooled.SlopeMsPerKm, pooled.InterceptMs
	// Anchors without mesh data are served the pooled line but not
	// flagged: only probes are pooled by nature.
	m.Pooled = !lm.IsAnchor
	return m, nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var rep Report
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&rep); err != nil {
		httpError(w, http.StatusBadRequest, "bad report: "+err.Error())
		return
	}
	if rep.Client == "" || len(rep.Samples) == 0 {
		httpError(w, http.StatusBadRequest, "report needs a client and samples")
		return
	}
	if rep.Seq < 0 {
		httpError(w, http.StatusBadRequest, "negative seq")
		return
	}
	for _, smp := range rep.Samples {
		if smp.RTTms <= 0 {
			httpError(w, http.StatusBadRequest, "non-positive RTT")
			return
		}
		if s.cons.Landmark(netsim.HostID(smp.LandmarkID)) == nil {
			httpError(w, http.StatusBadRequest, "unknown landmark "+smp.LandmarkID)
			return
		}
	}
	s.mu.Lock()
	if rep.Seq > 0 {
		key := rep.Client + "|" + strconv.FormatInt(rep.Seq, 10)
		if _, dup := s.seen[key]; dup {
			s.dupes++
			s.mu.Unlock()
			s.tel.Add("atlasd.report.duplicates", 1)
			// Idempotent retry: same receipt as the first upload.
			writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(rep.Samples)})
			return
		}
		s.seen[key] = struct{}{}
	}
	s.reports = append(s.reports, rep)
	s.mu.Unlock()
	s.tel.Add("atlasd.report.samples", int64(len(rep.Samples)))
	writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(rep.Samples)})
}

func toInfo(lm *atlas.Landmark, cont worldmap.Continent) LandmarkInfo {
	return LandmarkInfo{
		ID:        string(lm.Host.ID),
		Addr:      lm.Host.Addr,
		Lat:       lm.Host.Loc.Lat,
		Lon:       lm.Host.Loc.Lon,
		Continent: cont.String(),
		Anchor:    lm.IsAnchor,
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("atlasd: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// ErrServer is returned by the client for non-2xx responses.
var ErrServer = errors.New("atlasd: server error")
