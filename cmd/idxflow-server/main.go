// Command idxflow-server runs the QaaS service as an HTTP server: dataflows
// are submitted in flowlang format to POST /v1/dataflows and executed with
// online index tuning; GET /v1/indexes, /v1/metrics and /v1/tables expose
// the service state, and GET /metrics serves the telemetry registry in the
// Prometheus text exposition format.
//
// Submissions run through the concurrent multi-tenant admission pipeline.
// A submission carries a tenant (?tenant= or X-Idxflow-Tenant), or goes to
// the "default" tenant when it names none. Each tenant gets isolated tuning
// state over its own deterministic database, a worker pool executes
// Algorithm-1 passes concurrently against a shared container fleet, and a
// full queue answers HTTP 429 with Retry-After. The default tenant exists
// from startup, so a fresh server already lists its tables and metric
// families. GET /v1/qaas exposes the pipeline snapshot, GET /debug/audit
// the accounting verdict.
//
// On SIGINT/SIGTERM the server shuts down gracefully: the listener closes
// immediately and in-flight requests get -drain to finish. With -trace or
// -events, the span timeline and each tenant's decision-provenance event
// log (to <events>.<tenant>) are flushed after the drain, so decisions made
// by the last in-flight submissions are captured.
//
// Usage:
//
//	idxflow-server [-addr :8080] [-strategy gain] [-seed 1] [-drain 10s]
//	               [-trace out.json] [-events out.jsonl]
//	               [-workers 8] [-queue 256] [-tenant-inflight 64]
//	               [-max-tenants 256] [-fleet 64] [-pace 0]
//	               [-prov-cap 262144] [-batch-max 8] [-audit]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/qaas"
	"idxflow/internal/server"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		strategy = flag.String("strategy", "gain", "no-index | random | gain-no-delete | gain")
		seed     = flag.Int64("seed", 1, "base seed; each tenant's file database derives from it and the tenant name")
		drain    = flag.Duration("drain", server.DefaultDrainTimeout, "in-flight request drain timeout on shutdown")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON span timeline to this file on shutdown")
		events   = flag.String("events", "", "write each tenant's decision-provenance event log (JSONL) to <path>.<tenant> on shutdown; /debug/events serves it live")

		workers  = flag.Int("workers", 8, "concurrent Algorithm-1 executors")
		queue    = flag.Int("queue", 256, "bounded admission queue depth")
		tenantIn = flag.Int("tenant-inflight", 64, "per-tenant fair-share cap on in-flight admissions (-1 disables)")
		maxTen   = flag.Int("max-tenants", qaas.DefaultMaxTenants, "cap on distinct tenants a server instantiates (-1 disables)")
		fleet    = flag.Int("fleet", 64, "shared container fleet capacity")
		pace     = flag.Float64("pace", 0, "wall-clock ms of container occupancy per billing quantum of makespan")
		provCap  = flag.Int("prov-cap", 262144, "per-tenant provenance ring capacity (the ring grows on demand up to it, then overwrites the oldest event)")
		batchMax = flag.Int("batch-max", qaas.DefaultBatchMax, "admissions coalesced per batched window (-1 disables)")
		audit    = flag.Bool("audit", true, "run check.Audit on every execution, verdict at /debug/audit")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	switch *strategy {
	case "no-index":
		cfg.Strategy = core.NoIndex
	case "random":
		cfg.Strategy = core.RandomIndex
	case "gain-no-delete":
		cfg.Strategy = core.GainNoDelete
	case "gain":
		cfg.Strategy = core.Gain
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer()
	}

	var auditor *check.ExecAuditor
	pcfg := qaas.Config{
		Core:               cfg,
		Seed:               *seed,
		Workers:            *workers,
		QueueDepth:         *queue,
		TenantInflight:     *tenantIn,
		MaxTenants:         *maxTen,
		FleetContainers:    *fleet,
		PaceMSPerQuantum:   *pace,
		ProvenanceCapacity: *provCap,
		BatchMax:           *batchMax,
	}
	if *audit {
		// Exact replay holds whenever no runtime-error model or fault
		// plan perturbs executions — true for every flag this command
		// exposes.
		auditor = &check.ExecAuditor{Exact: true}
		pcfg.PostExec = auditor.Hook
	}
	pipe := qaas.New(pcfg)
	def, err := pipe.Tenant(server.DefaultTenant)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.NewQaaS(pipe, auditor)
	if *events != "" {
		srv.OnShutdown(func() {
			for _, t := range pipe.Tenants() {
				path := *events + "." + t.Name()
				rec := t.Recorder()
				if err := writeFile(path, rec.WriteJSONL); err != nil {
					log.Printf("idxflow-server: writing events for %s: %v", t.Name(), err)
					continue
				}
				log.Printf("idxflow-server: %d events -> %s", rec.Len(), path)
			}
		})
	}
	def.Do(func(_ *core.Service, db *workload.FileDB) {
		log.Printf("idxflow-server listening on %s (%d workers, queue %d, fleet %d, strategy %s, %d tables, %d potential indexes)",
			*addr, *workers, *queue, *fleet, cfg.Strategy, len(db.Files), len(db.Catalog.IndexNames()))
	})
	if *traceOut != "" {
		srv.OnShutdown(func() {
			if err := writeFile(*traceOut, cfg.Tracer.WriteChromeTrace); err != nil {
				log.Printf("idxflow-server: writing trace: %v", err)
				return
			}
			log.Printf("idxflow-server: %d spans -> %s", cfg.Tracer.Len(), *traceOut)
		})
	}

	// SIGINT/SIGTERM cancel the context; in-flight submissions drain
	// before the process exits instead of dying mid-execution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		log.Fatal(err)
	}
	log.Print("idxflow-server: drained, shutting down")
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
