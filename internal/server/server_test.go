package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idxflow/internal/core"
	"idxflow/internal/workload"
)

// newTestServer builds a server over testPipeline with the default tenant
// instantiated, as cmd/idxflow-server does at startup, and returns that
// tenant's database.
func newTestServer(t *testing.T) (*Server, *workload.FileDB) {
	t.Helper()
	p, auditor := testPipeline(t, nil)
	tenant, err := p.Tenant(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	var db *workload.FileDB
	tenant.Do(func(_ *core.Service, tdb *workload.FileDB) { db = tdb })
	return NewQaaS(p, auditor), db
}

// testServer serves newTestServer over HTTP and returns the default
// tenant's database, against which flowText crafts dataflows.
func testServer(t *testing.T) (*workload.FileDB, *httptest.Server) {
	t.Helper()
	s, db := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return db, ts
}

// flowText builds a flowlang dataflow reading a real catalog partition so
// the tuner has something to index.
func flowText(db *workload.FileDB) string {
	path := db.Files[0].Table.Partitions[0].Path
	idx := db.Files[0].Indexes[0].Name()
	return `
flow api-test
input ` + path + `
op scan kind=range time=40 reads=` + path + `
op agg kind=aggregate time=10
edge scan -> agg size=4
index ` + idx + ` ops=scan:94.44
`
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSubmitDataflow(t *testing.T) {
	db, ts := testServer(t)
	body := flowText(db)
	resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Flow != "api-test" {
		t.Errorf("flow = %q", out.Flow)
	}
	if out.MakespanSeconds <= 0 || out.MoneyQuanta <= 0 {
		t.Errorf("result = %+v", out)
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader("not a flow"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSubmitWrongMethod(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/dataflows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestIndexLifecycleOverAPI(t *testing.T) {
	db, ts := testServer(t)
	// Submit the same flow a few times so its index becomes beneficial and
	// gets built.
	body := flowText(db)
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/indexes?available=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Error("no index became available after repeated submissions")
	}
	for _, in := range infos {
		if !in.Available || in.BuiltCount == 0 {
			t.Errorf("non-available index in filtered list: %+v", in)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db, ts := testServer(t)
	submitFlow(t, ts, db)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Tenant != DefaultTenant || m.Admitted != 1 {
		t.Errorf("metrics = %+v, want the default tenant with 1 admission", m)
	}
	if m.ClockSeconds <= 0 {
		t.Errorf("clock = %g", m.ClockSeconds)
	}
}

func TestTablesEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tables []TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 125 {
		t.Errorf("tables = %d, want 125", len(tables))
	}
}
