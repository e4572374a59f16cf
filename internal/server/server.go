// Package server exposes the QaaS service over HTTP — the front door of
// the Fig. 1 architecture: users submit dataflows, the service executes
// them with online index tuning, and operational state (index set, metrics,
// tables) is inspectable.
//
// Endpoints:
//
//	POST /v1/dataflows       submit one dataflow in flowlang format
//	GET  /v1/indexes         the tenant's current index states
//	GET  /v1/metrics         the tenant's service counters (JSON)
//	GET  /v1/tables          the tenant's catalog tables
//	GET  /v1/qaas            the pipeline snapshot: queue, fleet, books
//	GET  /metrics            Prometheus text exposition of the telemetry registry
//	GET  /metrics.json       alias of /v1/metrics for scrapers expecting JSON
//	GET  /debug/events       the tenant's decision-provenance log (JSONL)
//	GET  /debug/flows/{id}   one dataflow's decision chain
//	GET  /debug/audit        the accounting verdict
//	GET  /healthz            liveness
//
// Every submission goes through a qaas.Pipeline: a bounded admission
// queue feeds a worker pool that runs Algorithm-1 passes concurrently
// across tenants against a shared container fleet. A request names its
// tenant with ?tenant= or the X-Idxflow-Tenant header; one that names none
// goes to DefaultTenant. Each tenant's lock serializes its own passes
// (§3); the state endpoints read a tenant under that lock, so they see
// whole passes only. The telemetry registry is internally synchronized, so
// /metrics scrapes never block a running submission.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"idxflow/internal/check"
	"idxflow/internal/data"
	"idxflow/internal/qaas"
)

// Server wraps a qaas.Pipeline with an HTTP API. auditor optionally
// collects a per-execution check.Audit verdict surfaced at /debug/audit.
type Server struct {
	pipe    *qaas.Pipeline
	auditor *check.ExecAuditor

	mu    sync.Mutex // guards flush
	flush []func()
}

// OnShutdown registers a hook that Serve runs after the graceful drain
// completes — after the last in-flight submission has finished, so flushing
// the span tracer or the flight recorder to disk sees the final state.
// Hooks run in registration order.
func (s *Server) OnShutdown(fn func()) {
	s.mu.Lock()
	s.flush = append(s.flush, fn)
	s.mu.Unlock()
}

// runShutdownHooks executes the registered hooks once the server has
// drained.
func (s *Server) runShutdownHooks() {
	s.mu.Lock()
	hooks := s.flush
	s.flush = nil
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewQaaS returns a server over the given pipeline. auditor may be nil;
// when set, every execution is audited via the pipeline's PostExec hook
// and /debug/audit reports the verdict.
func NewQaaS(p *qaas.Pipeline, auditor *check.ExecAuditor) *Server {
	return &Server{pipe: p, auditor: auditor}
}

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dataflows", s.handleSubmit)
	mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/tables", s.handleTables)
	mux.HandleFunc("GET /v1/qaas", s.handleQaaSReport)
	mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /debug/flows/{id}", s.handleFlow)
	mux.HandleFunc("GET /debug/audit", s.handleAudit)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	reqs := s.pipe.Telemetry().CounterVec("idxflow_http_requests_total",
		"HTTP requests served, by route pattern.", "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			reqs.With(pattern).Inc()
		} else {
			reqs.With("unmatched").Inc()
		}
		mux.ServeHTTP(w, r)
	})
}

// handlePrometheus renders the pipeline's telemetry registry in the
// Prometheus text exposition format. The registry synchronizes itself, so
// no tenant lock is taken and scrapes cannot delay submissions.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.pipe.Telemetry().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SubmitResponse is the JSON result of a dataflow submission.
type SubmitResponse struct {
	Flow            string   `json:"flow"`
	StartSeconds    float64  `json:"start_seconds"`
	EndSeconds      float64  `json:"end_seconds"`
	MakespanSeconds float64  `json:"makespan_seconds"`
	MoneyQuanta     float64  `json:"money_quanta"`
	IndexesUsed     []string `json:"indexes_used"`
	BuildsCompleted int      `json:"builds_completed"`
	BuildsKilled    int      `json:"builds_killed"`
	IndexesDeleted  []string `json:"indexes_deleted"`
}

// IndexInfo is the JSON view of one index state.
type IndexInfo struct {
	Name          string  `json:"name"`
	Table         string  `json:"table"`
	BuiltCount    int     `json:"built_partitions"`
	TotalCount    int     `json:"total_partitions"`
	BuiltSizeMB   float64 `json:"built_size_mb"`
	Available     bool    `json:"available"`
	FullSizeMB    float64 `json:"full_size_mb"`
	BuiltFraction float64 `json:"built_fraction"`
}

// indexInfos renders the catalog's index states; the caller holds
// whatever lock guards the catalog.
func indexInfos(cat *data.Catalog, onlyAvailable bool) []IndexInfo {
	out := []IndexInfo{}
	for _, name := range cat.IndexNames() {
		st := cat.State(name)
		if onlyAvailable && st.BuiltCount() == 0 {
			continue
		}
		out = append(out, IndexInfo{
			Name:          name,
			Table:         st.Index.Table.Name,
			BuiltCount:    st.BuiltCount(),
			TotalCount:    len(st.Index.Table.Partitions),
			BuiltSizeMB:   st.BuiltSizeMB(),
			Available:     st.BuiltCount() > 0,
			FullSizeMB:    st.Index.SizeMB(),
			BuiltFraction: st.BuiltFraction(),
		})
	}
	return out
}

// TableInfo is the JSON view of one catalog table.
type TableInfo struct {
	Name       string  `json:"name"`
	Partitions int     `json:"partitions"`
	Records    int64   `json:"records"`
	SizeMB     float64 `json:"size_mb"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than note it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func orEmpty(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}
