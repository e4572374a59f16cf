package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/flowlang"
	"idxflow/internal/provenance"
	"idxflow/internal/qaas"
	"idxflow/internal/sched"
	"idxflow/internal/server"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// provenanceCapacity is idxflow-server's -prov-cap default.
const provenanceCapacity = 262144

// coreConfig is the tenant service template of `idxflow-server -qaas`:
// the Gain strategy with LP interleaving over the Table 3 defaults.
// reg isolates one stack's counters from the next.
func coreConfig(reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	return cfg
}

// pipelineConfig is the pipeline `idxflow-server -qaas` builds from its
// flag defaults, except one worker per CPU and pace 0: the benchmark
// measures CPU cost, not modelled container occupancy.
func pipelineConfig(reg *telemetry.Registry, postExec func(*sched.Schedule, sim.Result)) qaas.Config {
	return qaas.Config{
		Core:               coreConfig(reg),
		Seed:               serverSeed,
		Workers:            runtime.NumCPU(),
		QueueDepth:         256,
		TenantInflight:     64,
		MaxTenants:         qaas.DefaultMaxTenants,
		FleetContainers:    64,
		ProvenanceCapacity: provenanceCapacity,
		BatchMax:           qaas.DefaultBatchMax,
		PostExec:           postExec,
	}
}

// submitted is what a backend reports for one admission.
type submitted struct {
	end       float64
	money     float64
	completed int // index-build ops completed
	killed    int
	totalOps  int
}

// backend executes a plan's requests against one layer of the stack.
// conn is the calling connection; calls for one connection are
// sequential, and each tenant is only ever used by one connection.
type backend interface {
	submit(conn int, o op) (submitted, error)
	read(conn int, o op, flowID int) error
}

// passResult is one drive of a plan.
type passResult struct {
	// byID[o.id] is the outcome of request o (zero when skipped).
	byID []outcome
	// window and probeWindow are the wall time of the submission phase
	// and the read probe.
	window, probeWindow time.Duration
}

type outcome struct {
	done    bool
	kind    opKind
	tenant  string
	start   time.Time
	err     error
	latency time.Duration
	res     submitted
}

// drive runs the plan's connections concurrently against b, each a closed
// loop, then the read probe.
func drive(p *plan, b backend) *passResult {
	r := &passResult{byID: make([]outcome, p.ops)}
	counts := make([]map[string]int, conns)
	for c := range counts {
		counts[c] = make(map[string]int)
	}
	run := func(scripts [][]op, horizon float64) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for c := range scripts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				runScript(scripts[c], horizon, c, b, counts[c], r.byID)
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	r.window = run(p.conns, p.horizon)
	r.probeWindow = run(p.probe, 0)
	return r
}

// runScript issues one connection's requests in order. admitted tracks
// the connection's own tenants, so flow reads resolve against the flows
// they already admitted.
func runScript(script []op, horizon float64, conn int, b backend, admitted map[string]int, out []outcome) {
	stopped := make(map[string]bool)
	for _, o := range script {
		if stopped[o.tenant] {
			continue
		}
		oc := outcome{kind: o.kind, tenant: o.tenant, start: time.Now()}
		if o.kind == submitOp {
			oc.res, oc.err = b.submit(conn, o)
		} else {
			id := admitted[o.tenant] - o.back
			if id < 1 {
				id = 1
			}
			oc.err = b.read(conn, o, id)
		}
		oc.latency = time.Since(oc.start)
		oc.done = true
		out[o.id] = oc
		if o.kind == submitOp && oc.err == nil {
			admitted[o.tenant]++
			if horizon > 0 && oc.res.end >= horizon {
				stopped[o.tenant] = true
			}
		}
	}
}

// stack is the program as idxflow-server -qaas runs it: the admission
// pipeline with the execution auditor, served over loopback HTTP.
type stack struct {
	pipe    *qaas.Pipeline
	auditor *check.ExecAuditor
	base    string
	clients []*http.Client
	stop    context.CancelFunc
	served  chan error
}

// newPipeline builds the pipeline and instantiates every tenant up front,
// so first-use allocation (file database, provenance ring) is set-up cost.
func newPipeline(tenants []string) (*qaas.Pipeline, *check.ExecAuditor, error) {
	auditor := &check.ExecAuditor{Exact: true}
	pipe := qaas.New(pipelineConfig(telemetry.NewRegistry(), auditor.Hook))
	for _, t := range tenants {
		if _, err := pipe.Tenant(t); err != nil {
			pipe.Drain(context.Background())
			return nil, nil, fmt.Errorf("instantiating %s: %w", t, err)
		}
	}
	return pipe, auditor, nil
}

func startStack(tenants []string) (*stack, error) {
	pipe, auditor, err := newPipeline(tenants)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pipe.Drain(context.Background())
		return nil, err
	}
	s := &stack{pipe: pipe, auditor: auditor, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	ready := make(chan struct{})
	go func() {
		s.served <- server.NewQaaS(pipe, auditor).Serve(ctx, ln, 30*time.Second, ready)
	}()
	<-ready
	for c := 0; c < conns; c++ {
		cl := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
		s.clients = append(s.clients, cl)
		// Open the keep-alive connection before the timed window.
		if err := get(cl, s.base+"/healthz"); err != nil {
			s.close()
			return nil, fmt.Errorf("warming connection %d: %w", c, err)
		}
	}
	return s, nil
}

// close shuts the HTTP server down and drains the pipeline (server.Serve
// does both), then drops the client connections.
func (s *stack) close() error {
	s.stop()
	err := <-s.served
	for _, cl := range s.clients {
		cl.CloseIdleConnections()
	}
	return err
}

func get(cl *http.Client, url string) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// httpBackend is pass 1: the requests over loopback HTTP.
type httpBackend struct{ s *stack }

func (h httpBackend) submit(conn int, o op) (submitted, error) {
	resp, err := h.s.clients[conn].Post(h.s.base+"/v1/dataflows?tenant="+o.tenant, "text/plain", strings.NewReader(o.body))
	if err != nil {
		return submitted{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return submitted{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return submitted{}, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return submitted{}, fmt.Errorf("submit response: %w", err)
	}
	return submitted{end: sr.EndSeconds, money: sr.MoneyQuanta, completed: sr.BuildsCompleted, killed: sr.BuildsKilled}, nil
}

func (h httpBackend) read(conn int, o op, flowID int) error {
	var path string
	switch o.kind {
	case flowRead:
		path = "/debug/flows/" + strconv.Itoa(flowID) + "?tenant=" + o.tenant
	case indexesRead:
		path = "/v1/indexes?tenant=" + o.tenant
	default:
		path = "/v1/qaas"
	}
	return get(h.s.clients[conn], h.s.base+path)
}

// pipeBackend is pass 2: flowlang.Parse, then qaas.Pipeline.Submit in
// process. It records each layer's time per request, and spans when sp is
// set.
type pipeBackend struct {
	pipe            *qaas.Pipeline
	parseT, submitT []time.Duration // by request id
	sp              *spans
}

func newPipeBackend(pipe *qaas.Pipeline, ops int) *pipeBackend {
	return &pipeBackend{pipe: pipe, parseT: make([]time.Duration, ops), submitT: make([]time.Duration, ops)}
}

func (pb *pipeBackend) submit(conn int, o op) (submitted, error) {
	start := time.Now()
	flow, err := flowlang.ParseString(o.body)
	parsed := time.Now()
	pb.parseT[o.id] = parsed.Sub(start)
	if err != nil {
		return submitted{}, err
	}
	res, err := pb.pipe.Submit(context.Background(), o.tenant, flow)
	pb.submitT[o.id] = time.Since(parsed)
	if pb.sp != nil {
		root := pb.sp.add(spanRec{Pass: 2, Req: o.id, Name: "inproc.submit", Tenant: o.tenant}, start, pb.parseT[o.id]+pb.submitT[o.id])
		pb.sp.add(spanRec{Pass: 2, Req: o.id, Parent: root, Name: "flowlang.parse", Tenant: o.tenant}, start, pb.parseT[o.id])
		pb.sp.add(spanRec{Pass: 2, Req: o.id, Parent: root, Name: "qaas.submit", Tenant: o.tenant}, parsed, pb.submitT[o.id])
	}
	if err != nil {
		return submitted{}, err
	}
	return fromResult(res), nil
}

func fromResult(res core.FlowResult) submitted {
	return submitted{end: res.End, money: res.MoneyQuanta, completed: res.BuildsCompleted,
		killed: res.BuildsKilled, totalOps: res.TotalOps}
}

// read calls what each endpoint's handler calls: the tenant recorder's
// FlowEvents, the catalog listing under the tenant lock, or Report.
func (pb *pipeBackend) read(conn int, o op, flowID int) error {
	var t *qaas.Tenant
	if o.kind != qaasRead {
		if t = pb.pipe.Lookup(o.tenant); t == nil {
			return fmt.Errorf("tenant %s not instantiated", o.tenant)
		}
	}
	start := time.Now()
	var name string
	var err error
	switch o.kind {
	case flowRead:
		name = "provenance.flow_events"
		if len(t.Recorder().FlowEvents(provenance.FlowID(flowID))) == 0 {
			err = fmt.Errorf("flow %d of %s recorded no events", flowID, o.tenant)
		}
	case indexesRead:
		name = "qaas.indexes"
		t.Do(func(svc *core.Service, _ *workload.FileDB) { _ = svc.Catalog().IndexNames() })
	default:
		name = "qaas.report"
		pb.pipe.Report()
	}
	if pb.sp != nil {
		pb.sp.add(spanRec{Pass: 2, Req: o.id, Name: name, Tenant: o.tenant}, start, time.Since(start))
	}
	return err
}

// replicaBackend is pass 3: one core.Service per tenant, built as qaas
// builds them but without the pipeline around it. When traced, each
// replica records into its own tracer and the benchmark's core.submit span
// wraps SubmitCtx, so the program's spans nest under it.
type replicaBackend struct {
	svcs    map[string]*core.Service
	tracers map[string]*telemetry.Tracer
	// epochs is when each tracer started, to align its timestamps.
	epochs  map[string]time.Time
	sp      *spans
	auditor *check.ExecAuditor
	core    []time.Duration // by request id
}

// newReplicas builds the replicas; sp, when non-nil, turns tracing on.
func newReplicas(tenants []string, ops int, sp *spans) (*replicaBackend, error) {
	rb := &replicaBackend{svcs: make(map[string]*core.Service), tracers: make(map[string]*telemetry.Tracer),
		epochs: make(map[string]time.Time), sp: sp, auditor: &check.ExecAuditor{Exact: true},
		core: make([]time.Duration, ops)}
	reg := telemetry.NewRegistry()
	for _, name := range tenants {
		db, err := tenantDB(name)
		if err != nil {
			return nil, err
		}
		cfg := coreConfig(reg)
		// As qaas.New and Pipeline.Tenant configure a tenant service.
		cfg.Sched.MaxContainers = 64
		cfg.Seed = qaas.TenantSeed(serverSeed, name)
		cfg.Provenance = provenance.NewRecorder(provenanceCapacity)
		cfg.PostExec = rb.auditor.Hook
		if sp != nil {
			rb.epochs[name] = time.Now()
			tr := telemetry.NewTracer()
			cfg.Tracer = tr
			rb.tracers[name] = tr
			cfg.PostExec = func(chosen *sched.Schedule, run sim.Result) {
				span := tr.StartSpan("check.audit")
				rb.auditor.Hook(chosen, run)
				span.End()
			}
		}
		rb.svcs[name] = core.NewService(cfg, db)
	}
	return rb, nil
}

func (rb *replicaBackend) submit(conn int, o op) (submitted, error) {
	flow, err := flowlang.ParseString(o.body)
	if err != nil {
		return submitted{}, err
	}
	span := rb.tracers[o.tenant].StartSpan("core.submit").SetAttr("req", o.id)
	start := time.Now()
	res := rb.svcs[o.tenant].SubmitCtx(context.Background(), flow)
	rb.core[o.id] = time.Since(start)
	span.End()
	if res.Cancelled {
		return submitted{}, errors.New("submission cancelled")
	}
	return fromResult(res), nil
}

// Reads need the pipeline; pass 3 has none, so they are not replayed.
func (rb *replicaBackend) read(int, op, int) error { return nil }

// collect moves every replica tracer's spans into the run's spans.
func (rb *replicaBackend) collect() {
	for name, tr := range rb.tracers {
		offset := float64(rb.epochs[name].Sub(rb.sp.epoch)) / float64(time.Microsecond)
		rb.sp.addTracer(name, 3, tr.Events(), offset)
	}
}

// settle audits a drained pipeline: the books, fleet and provenance
// invariants of check.AuditQaaS, the per-execution audit, nothing in
// flight, no provenance ring wrapped, and every admission accounted for.
func settle(pipe *qaas.Pipeline, auditor *check.ExecAuditor, admitted int) (qaas.Report, error) {
	rep := pipe.Report()
	var errs []error
	if err := check.AuditQaaS(rep); err != nil {
		errs = append(errs, err)
	}
	if err := auditor.Err(); err != nil {
		errs = append(errs, err)
	}
	if rep.InFlight != 0 {
		errs = append(errs, fmt.Errorf("%d admissions still in flight", rep.InFlight))
	}
	for _, tr := range rep.Tenants {
		if tr.ProvenanceDropped != 0 {
			errs = append(errs, fmt.Errorf("tenant %s provenance ring wrapped (%d dropped)", tr.Tenant, tr.ProvenanceDropped))
		}
	}
	if rep.Admitted != int64(admitted) || auditor.Executions() != admitted {
		errs = append(errs, fmt.Errorf("pipeline admitted %d and audited %d executions, clients saw %d",
			rep.Admitted, auditor.Executions(), admitted))
	}
	return rep, errors.Join(errs...)
}

// quality derives the deterministic tuner-quality figures of a settled
// round: flows whose simulated end is within the horizon (every flow when
// the plan has none), and Σ(VM + storage cost) over them, as
// core.Service.Run derives CostPerFlow.
func quality(p *plan, r *passResult, rep qaas.Report) (finished int, costPerFlow float64) {
	for _, oc := range r.byID {
		if oc.done && oc.err == nil && oc.kind == submitOp && (p.horizon <= 0 || oc.res.end <= p.horizon) {
			finished++
		}
	}
	var cost float64
	for _, tr := range rep.Tenants {
		cost += tr.Metrics.VMCost + tr.Metrics.StorageCost
	}
	if finished > 0 {
		costPerFlow = cost / float64(finished)
	}
	return finished, costPerFlow
}
