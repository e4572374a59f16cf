package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/flowlang"
	"idxflow/internal/qaas"
	"idxflow/internal/workload"
)

// TenantHeader carries the tenant identifier when the ?tenant= query
// parameter is absent.
const TenantHeader = "X-Idxflow-Tenant"

// DefaultTenant serves every request that names no tenant, so
// single-tenant clients need not know about tenants at all.
const DefaultTenant = "default"

// tenantOf resolves the request's tenant: ?tenant= wins, then the
// X-Idxflow-Tenant header, then "default".
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// BackpressureResponse is the 429 body for rejected admissions.
type BackpressureResponse struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// handleSubmit admits one dataflow through the concurrent pipeline and
// blocks until its Algorithm-1 pass completes. Backpressure surfaces as
// HTTP 429 with a Retry-After header (whole seconds, rounded up per RFC
// 9110); a client that disconnects while queued gets its execution
// abandoned uncharged.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	flow, err := flowlang.Parse(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant := tenantOf(r)
	res, err := s.pipe.Submit(r.Context(), tenant, flow)
	var bp *qaas.BackpressureError
	switch {
	case errors.Is(err, qaas.ErrTenantName):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.As(err, &bp):
		secs := int(math.Ceil(bp.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, BackpressureResponse{
			Error:             bp.Error(),
			Reason:            bp.Reason,
			RetryAfterSeconds: bp.RetryAfter.Seconds(),
		})
		return
	case err != nil:
		// Context cancellation (client gone), tenant capacity reached, or
		// tenant bootstrap failure.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{
		Flow:            res.Flow.Name,
		StartSeconds:    res.Start,
		EndSeconds:      res.End,
		MakespanSeconds: res.Makespan,
		MoneyQuanta:     res.MoneyQuanta,
		IndexesUsed:     orEmpty(res.IndexesUsed),
		BuildsCompleted: res.BuildsCompleted,
		BuildsKilled:    res.BuildsKilled,
		IndexesDeleted:  orEmpty(res.Deleted),
	})
}

// lookupTenant resolves the request's tenant state without instantiating
// it: tenant names are untrusted input and each instantiation allocates a
// full file database, service and provenance ring, so read-only endpoints
// must never create one. A nil result means "no state yet" — handlers
// render the natural empty view, which is also what a just-created tenant
// would show.
func (s *Server) lookupTenant(r *http.Request) *qaas.Tenant {
	return s.pipe.Lookup(tenantOf(r))
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	onlyAvailable := r.URL.Query().Get("available") == "true"
	out := []IndexInfo{}
	if t := s.lookupTenant(r); t != nil {
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			out = indexInfos(svc.Catalog(), onlyAvailable)
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// MetricsResponse is the tenant-scoped /v1/metrics view.
type MetricsResponse struct {
	Tenant           string  `json:"tenant"`
	ClockSeconds     float64 `json:"clock_seconds"`
	Admitted         int64   `json:"dataflows_admitted"`
	IndexesAvailable int     `json:"indexes_available"`
	IndexStorageMB   float64 `json:"index_storage_mb"`
	VMQuanta         float64 `json:"vm_quanta"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Tenant: tenantOf(r)}
	if t := s.lookupTenant(r); t != nil {
		resp.Admitted = t.Admitted()
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			resp.ClockSeconds = svc.Clock()
			resp.IndexesAvailable = len(svc.Catalog().AvailableSet())
			resp.IndexStorageMB = svc.Catalog().BuiltSizeMB()
			resp.VMQuanta = svc.Aggregates().VMQuanta
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	out := []TableInfo{}
	if t := s.lookupTenant(r); t != nil {
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			for _, f := range db.Files {
				out = append(out, TableInfo{
					Name:       f.Table.Name,
					Partitions: len(f.Table.Partitions),
					Records:    f.Table.NumRecords(),
					SizeMB:     f.Table.SizeMB(),
				})
			}
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQaaSReport exposes the pipeline-wide snapshot: queue depth, fleet
// occupancy, global and per-tenant books, admission counters.
func (s *Server) handleQaaSReport(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pipe.Summary())
}

// AuditResponse is the /debug/audit verdict.
type AuditResponse struct {
	Clean      bool     `json:"clean"`
	Violations []string `json:"violations"`
	// Executions is how many executions the in-line auditor has checked
	// (-1 when no auditor is installed).
	Executions int   `json:"executions"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	InFlight   int64 `json:"in_flight"`
}

// handleAudit runs check.AuditQaaS on a fresh pipeline snapshot, merges
// the in-line execution auditor's verdict, and reports every violation.
// The books are only exactly balanced when nothing is in flight; run it
// against a quiesced (or drained) pipeline for a binding verdict.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	rep := s.pipe.Report()
	resp := AuditResponse{
		Clean:      true,
		Violations: []string{},
		Executions: -1,
		Admitted:   rep.Admitted,
		Rejected:   rep.Rejected,
		InFlight:   rep.InFlight,
	}
	if err := check.AuditQaaS(rep); err != nil {
		resp.Clean = false
		resp.Violations = append(resp.Violations, err.Error())
	}
	if s.auditor != nil {
		resp.Executions = s.auditor.Executions()
		if err := s.auditor.Err(); err != nil {
			resp.Clean = false
			resp.Violations = append(resp.Violations, err.Error())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
