package atlasd

import (
	"net/http"
	"time"
)

// endpointNames lists the instrumented endpoints in serving order; the
// metrics builder ranges over this fixed slice, never over a map.
var endpointNames = []string{"phase1", "phase2", "model", "report", "metrics", "healthz"}

// EndpointMetrics summarizes one endpoint's traffic since startup.
type EndpointMetrics struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	DrainRejects int64   `json:"drain_rejects"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// Metrics is the /v1/metrics response: the server's operational state
// in one scrape.
type Metrics struct {
	UptimeMs         float64                    `json:"uptime_ms"`
	Draining         bool                       `json:"draining"`
	Epoch            int64                      `json:"epoch"`
	MaxInflight      int                        `json:"max_inflight"`
	Endpoints        map[string]EndpointMetrics `json:"endpoints"`
	ReportsLedgered  int                        `json:"reports_ledgered"`
	DuplicateReports int64                      `json:"duplicate_reports"`
	ModelCache       CacheStats                 `json:"model_cache"`
}

// Metrics returns a snapshot of the server's observability state, the
// same struct /v1/metrics serves.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		UptimeMs:    float64(time.Since(s.start).Microseconds()) / 1000,
		Draining:    s.Draining(),
		Epoch:       s.epoch.Load(),
		MaxInflight: s.cfg.MaxInflight,
		Endpoints:   make(map[string]EndpointMetrics, len(endpointNames)),
		ModelCache:  s.models.Stats(),
	}
	for _, name := range endpointNames {
		em := EndpointMetrics{
			Requests:     s.tel.Count("atlasd." + name + ".requests"),
			Errors:       s.tel.Count("atlasd." + name + ".errors"),
			Shed:         s.tel.Count("atlasd." + name + ".shed"),
			DrainRejects: s.tel.Count("atlasd." + name + ".drain_rejects"),
		}
		if d, ok := s.tel.Distribution("atlasd." + name + ".latency_ms"); ok {
			em.P50Ms, em.P99Ms, em.MaxMs = d.P50, d.P99, d.Max
		}
		m.Endpoints[name] = em
	}
	s.mu.Lock()
	m.ReportsLedgered = len(s.reports)
	m.DuplicateReports = s.dupes
	s.mu.Unlock()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}
