package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"idxflow/internal/provenance"
	"idxflow/internal/qaas"
)

// submitTenantFlows runs n generated flows for each tenant through the
// pipeline and waits for them, leaving it quiesced.
func submitTenantFlows(t *testing.T, ts *httptest.Server, n int, tenants ...string) {
	t.Helper()
	for _, tn := range tenants {
		for _, body := range tenantFlows(t, 1, tn, n) {
			resp, err := postFlow(ts, tn, body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tenant %s: submit status %d", tn, resp.StatusCode)
			}
		}
	}
}

// TestQaaSReportBodyMatchesReport checks that /v1/qaas, which skips
// copying the provenance logs, serves exactly the JSON of the full Report.
func TestQaaSReportBodyMatchesReport(t *testing.T) {
	p, _, ts := testQaaSServer(t, nil)
	submitTenantFlows(t, ts, 2, "a", "b")

	resp, err := http.Get(ts.URL + "/v1/qaas")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Tenants) != 2 || len(rep.Tenants[0].Events) == 0 {
		t.Fatalf("report has %d tenants, first with %d events", len(rep.Tenants), len(rep.Tenants[0].Events))
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("/v1/qaas body differs from json.Marshal(Report()):\ngot  %s\nwant %s", got, want)
	}
	for _, tr := range p.Summary().Tenants {
		if tr.Events != nil {
			t.Fatalf("Summary copied tenant %s's %d events", tr.Tenant, len(tr.Events))
		}
	}
}

// TestQaaSReportAllocationsIgnoreLog pins the cost of a /v1/qaas request
// against a tenant holding a large provenance log: it must not copy it.
func TestQaaSReportAllocationsIgnoreLog(t *testing.T) {
	p, auditor := testPipeline(t, func(cfg *qaas.Config) { cfg.ProvenanceCapacity = 1 << 16 })
	tn, err := p.Tenant("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		tn.Recorder().Append(provenance.Event{Kind: provenance.KindFlowAdmitted, Flow: provenance.FlowID(i + 1)})
	}
	h := NewQaaS(p, auditor).Handler()
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/qaas", nil))
		return w
	}
	serve() // warm up lazily built state outside the measurement

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := serve()
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("/v1/qaas with a 50k-event log allocated %d bytes, want < 1 MB", got)
	}
}

// TestDebugAuditFlagsBadLogs checks that /debug/audit, which still audits
// the full logs, names a tampered log and a wrapped one.
func TestDebugAuditFlagsBadLogs(t *testing.T) {
	audit := func(ts *httptest.Server) AuditResponse {
		var a AuditResponse
		getJSON(t, ts.URL+"/debug/audit", &a)
		return a
	}
	mentions := func(a AuditResponse, key string) bool {
		return strings.Contains(strings.Join(a.Violations, "\n"), key)
	}

	p, _, ts := testQaaSServer(t, nil)
	submitTenantFlows(t, ts, 1, "a")
	if a := audit(ts); !a.Clean {
		t.Fatalf("untouched pipeline not clean: %v", a.Violations)
	}
	// A second settlement for flow 1 that the books never saw.
	p.Lookup("a").Recorder().Append(provenance.Event{Kind: provenance.KindMoneySettled, Flow: 1, MoneyQuanta: 99})
	if a := audit(ts); a.Clean || !mentions(a, "prov-") {
		t.Fatalf("tampered log passed the audit: %+v", a)
	}

	_, _, ts = testQaaSServer(t, func(cfg *qaas.Config) { cfg.ProvenanceCapacity = 4 })
	submitTenantFlows(t, ts, 1, "w")
	if a := audit(ts); a.Clean || !mentions(a, "ring dropped") {
		t.Fatalf("wrapped log passed the audit: %+v", a)
	}
}
