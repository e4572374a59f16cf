package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"idxflow/internal/flowlang"
)

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceService replays a service plan once per layer boundary:
//
//	pass 1: the requests over HTTP (the timed runs' path);
//	pass 2: flowlang.Parse and qaas.Pipeline.Submit in process, on a
//	        fresh pipeline;
//	pass 3: per-tenant core.Service replicas: untraced, with a tracer
//	        per replica and the benchmark's core.submit span around
//	        SubmitCtx, under which the program's spans nest, then
//	        untraced again.
//
// Every pass must admit the same requests with the same results. A
// layer's self time is its span minus its children, or minus the next
// pass's time for the same request.
func traceService(o options, mk func(int64) (*plan, error), stderr io.Writer) (result, error) {
	p, err := mk(o.seed)
	if err != nil {
		return result{}, err
	}
	var errs []error
	sp := newSpans()

	st, err := startStack(p.tenants)
	if err != nil {
		return result{}, err
	}
	r1 := drive(p, httpBackend{st})
	if err := st.close(); err != nil {
		errs = append(errs, fmt.Errorf("pass 1 shutdown: %w", err))
	}
	res := result{}
	admitted := 0
	for id, oc := range r1.byID {
		if !oc.done {
			continue
		}
		res.Attempted++
		if oc.err != nil {
			res.Failed++
			errs = append(errs, fmt.Errorf("pass 1 request %d: %w", id, oc.err))
			continue
		}
		if oc.kind == submitOp {
			admitted++
		}
		sp.add(spanRec{Pass: 1, Req: id, Name: "http." + oc.kind.String(), Tenant: oc.tenant}, oc.start, oc.latency)
	}
	rep1, err := settle(st.pipe, st.auditor, admitted)
	if err != nil {
		errs = append(errs, fmt.Errorf("pass 1 audit: %w", err))
	}
	st = nil
	release()

	pipe, auditor, err := newPipeline(p.tenants)
	if err != nil {
		return result{}, err
	}
	pb := newPipeBackend(pipe, p.ops)
	pb.sp = sp
	r2 := drive(p, pb)
	if err := pipe.Drain(context.Background()); err != nil {
		errs = append(errs, fmt.Errorf("pass 2 drain: %w", err))
	}
	if _, err := settle(pipe, auditor, countAdmitted(r2)); err != nil {
		errs = append(errs, fmt.Errorf("pass 2 audit: %w", err))
	}
	pipe = nil
	release()

	// Pass 3 runs untraced, traced, then untraced again: the mean of the
	// untraced runs brackets the traced one, so drift between passes does
	// not pass for tracing overhead.
	var plain [2][]time.Duration // untraced SubmitCtx time by request id
	var outs [3]*passResult
	for i, traced := range []bool{false, true, false} {
		var rsp *spans
		if traced {
			rsp = sp
		}
		rb, err := newReplicas(p.tenants, p.ops, rsp)
		if err != nil {
			return result{}, err
		}
		outs[i] = drive(p, rb)
		if err := rb.auditor.Err(); err != nil {
			errs = append(errs, fmt.Errorf("pass 3 audit: %w", err))
		}
		if traced {
			rb.collect()
		} else {
			plain[i/2] = rb.core
		}
		release()
	}
	r4 := outs[1]

	for id := range r1.byID {
		if err := samePass(r1.byID[id], r2.byID[id], outs[0].byID[id], outs[1].byID[id], outs[2].byID[id]); err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", id, err))
		}
	}

	l := newLayers()
	self := sp.selfByReq(3)
	var (
		skyline, coreSpan, coreSelf, interleaveSelf, rank, execute, audit samples
		overhead, serverSelf, parse                                       samples
		plainSum, tracedSum                                               float64
		ops, built, killed, negative                                      int
	)
	for id, oc := range r1.byID {
		if !oc.done || oc.err != nil || oc.kind != submitOp || r4.byID[id].err != nil {
			continue
		}
		s := self[id]
		span := s["core.submit"] + s["service.submit"] + s["service.rank"] + s["interleave.lp"] +
			s["sched.skyline"] + s["sim.execute"] + s["check.audit"]
		rt, parseMS, submitMS, plainMS := msOf(oc.latency), msOf(pb.parseT[id]), msOf(pb.submitT[id]), msOf(plain[0][id]+plain[1][id])/2
		skyline = append(skyline, s["sched.skyline"])
		coreSpan = append(coreSpan, span)
		coreSelf = append(coreSelf, s["core.submit"]+s["service.submit"])
		interleaveSelf = append(interleaveSelf, s["interleave.lp"])
		rank = append(rank, s["service.rank"])
		execute = append(execute, s["sim.execute"])
		audit = append(audit, s["check.audit"])
		overhead = append(overhead, submitMS-plainMS)
		serverSelf = append(serverSelf, rt-parseMS-submitMS)
		if submitMS < plainMS || rt < parseMS+submitMS {
			negative++
		}
		parse = append(parse, parseMS*1000)
		plainSum += plainMS
		tracedSum += span
		ops += r4.byID[id].res.totalOps
		built += oc.res.completed
		killed += oc.res.killed
	}
	n := len(coreSpan)
	if n == 0 {
		return result{}, errors.Join(append(errs, errors.New("no request completed every pass"))...)
	}
	l.set("sched.skyline_p50_ms", skyline.quantile(0.5), n)
	l.set("sched.skyline_p99_ms", skyline.quantile(0.99), n)
	l.set("sched.skyline_share", skyline.sum()/coreSpan.sum(), n)
	l.set("sched.warm_hit_rate", rep1.Warm.HitRate, int(rep1.Warm.Hits+rep1.Warm.Misses))
	l.set("interleave.self_ms", interleaveSelf.quantile(0.5), n)
	if built+killed > 0 {
		l.set("interleave.build_commit_frac", float64(built)/float64(built+killed), built+killed)
	}
	l.set("gain.rank_ms", rank.quantile(0.5), n)
	l.set("sim.execute_ms", execute.quantile(0.5), n)
	l.set("check.audit_ms", audit.quantile(0.5), n)
	l.set("core.submit_p50_ms", coreSpan.quantile(0.5), n)
	l.set("core.submit_p99_ms", coreSpan.quantile(0.99), n)
	l.set("core.self_ms", coreSelf.quantile(0.5), n)
	l.set("core.ops_per_flow", float64(ops)/float64(n), n)
	l.set("qaas.overhead_p50_ms", overhead.quantile(0.5), n)
	l.set("qaas.overhead_p99_ms", overhead.quantile(0.99), n)
	if rs := sp.durations(2, "qaas.report"); len(rs) > 0 {
		l.set("qaas.report_ms", rs.quantile(0.5), len(rs))
	}
	l.set("qaas.batch_mean_size", rep1.Batch.MeanSize, int(rep1.Batch.Batches))
	if fe := sp.durations(2, "provenance.flow_events"); len(fe) > 0 {
		l.set("provenance.flow_events_ms", fe.quantile(0.5), len(fe))
	}
	l.set("flowlang.parse_us", parse.quantile(0.5), n)
	kb, parsed := parseAllocKB(p, r1)
	l.set("flowlang.alloc_kb", kb, parsed)
	l.set("server.self_ms", serverSelf.quantile(0.5), n)
	l.set("trace.overhead_frac", (tracedSum-plainSum)/plainSum, n)
	l.set("trace.negative_frac", float64(negative)/float64(n), n)
	res.Metrics = l.metrics()
	return res, finishTrace(o, sp, l, stderr, errs)
}

// finishTrace writes the traced run's spans and layer table.
func finishTrace(o options, sp *spans, l *layers, stderr io.Writer, errs []error) error {
	dir, err := traceDir(o.workload, o.seed)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	if err := sp.writeJSONL(filepath.Join(dir, "spans.jsonl"), o.workload); err != nil {
		errs = append(errs, err)
	}
	var table strings.Builder
	l.writeTable(&table, o.workload)
	fmt.Fprintf(&table, "trace.overhead_frac is traced over untraced time of the same work; "+
		"trace.negative_frac is the share of requests whose outer pass took less time than the inner one it contains.\n")
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table.String()), 0o644); err != nil {
		errs = append(errs, err)
	}
	io.WriteString(stderr, table.String())
	fmt.Fprintf(stderr, "spans and layer table in %s\n", dir)
	return errors.Join(errs...)
}

// samePass checks that a request fared the same in every pass: the
// program is deterministic per tenant, so each layer boundary must see
// the same admissions with the same simulated results.
func samePass(outs ...outcome) error {
	first := outs[0]
	for i, oc := range outs[1:] {
		if oc.done != first.done || (oc.err == nil) != (first.err == nil) {
			return fmt.Errorf("pass %d ran it differently (done %v, err %v) than pass 1 (done %v, err %v)",
				i+2, oc.done, oc.err, first.done, first.err)
		}
		if first.kind != submitOp {
			continue
		}
		a, b := first.res, oc.res
		if a.end != b.end || a.money != b.money || a.completed != b.completed || a.killed != b.killed {
			return fmt.Errorf("pass %d result %+v differs from pass 1 %+v", i+2, b, a)
		}
	}
	return nil
}

func countAdmitted(r *passResult) int {
	n := 0
	for _, oc := range r.byID {
		if oc.done && oc.err == nil && oc.kind == submitOp {
			n++
		}
	}
	return n
}

// parseAllocKB parses every body pass 1 submitted and reports the heap
// bytes allocated per parse.
func parseAllocKB(p *plan, r *passResult) (float64, int) {
	var bodies []string
	for _, script := range p.conns {
		for _, o := range script {
			if r.byID[o.id].done && o.kind == submitOp {
				bodies = append(bodies, o.body)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies {
		if _, err := flowlang.ParseString(b); err != nil {
			return 0, 0
		}
	}
	runtime.ReadMemStats(&after)
	if len(bodies) == 0 {
		return 0, 0
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(bodies)), len(bodies)
}

// traceTable6 loads the table once and runs every query twice, untraced
// and with a span around every storage, operator and tree call, taking
// turns at going first so warm-up favours neither.
func traceTable6(o options, stderr io.Writer) (result, error) {
	tab, err := loadTable6(outPath("tmp"), o.seed)
	if err != nil {
		return result{}, err
	}
	defer tab.close()
	var errs []error
	sp := newSpans()
	res := result{}
	var plainSum, tracedSum float64
	var pagesRead int64
	plain := make([]float64, len(tab.queries)) // untraced query time, ms
	for i, q := range tab.queries {
		tab.prepare(q)
		for pass := 0; pass < 2; pass++ {
			traced := (i+pass)%2 == 1
			var tr *q6trace
			reads0, _ := tab.tab.IOStats()
			start := time.Now()
			if traced {
				tr = &q6trace{sp: sp, req: i}
				tr.parent = sp.add(spanRec{Pass: 1, Req: i, Name: "query." + q.kind.String()}, start, 0)
			}
			a, err := tab.run(q, tr)
			d := time.Since(start)
			if traced {
				sp.setDur(tr.parent, d)
				tracedSum += msOf(d)
				reads1, _ := tab.tab.IOStats()
				pagesRead += reads1 - reads0
				res.Attempted++
			} else {
				plain[i] = msOf(d)
				plainSum += msOf(d)
			}
			if err == nil {
				err = tab.check(q, a)
			}
			if err != nil {
				if traced {
					res.Failed++
				}
				errs = append(errs, fmt.Errorf("%s: %w", q.kind, err))
			}
		}
	}

	l := newLayers()
	nq := len(tab.queries)
	scans := sp.spanSelves(1, "pagestore.scan")
	l.set("pagestore.scan_ms", scans.quantile(0.5), len(scans))
	l.set("pagestore.pages_read_per_query", float64(pagesRead)/float64(nq), nq)
	for _, m := range []struct{ metric, span string }{
		{"exec.select_ms", "exec.select"}, {"exec.sort_ms", "exec.sort"},
		{"exec.group_ms", "exec.group"}, {"exec.join_ms", "exec.join"},
	} {
		d := sp.durations(1, m.span)
		l.set(m.metric, d.quantile(0.5), len(d))
	}
	ranges := sp.durations(1, "bptree.range")
	l.set("bptree.range_us", ranges.quantile(0.5)*1000, len(ranges))
	gets := sp.durations(1, "bptree.get")
	l.set("bptree.get_us", gets.quantile(0.5)*1000/lookupBatch, len(gets)*lookupBatch)
	l.set("bptree.build_s", tab.build.Seconds(), 1)
	l.set("trace.overhead_frac", (tracedSum-plainSum)/plainSum, nq)
	// Layers are the roots' direct children. A query whose traced layer
	// calls add up to more than its whole untraced run would leave the
	// benchmark's own code between the calls a negative time.
	layers := make([]float64, nq)
	for _, r := range sp.recs {
		if r.Parent != 0 && sp.recs[r.Parent-1].Parent == 0 {
			layers[r.Req] += r.DurUS / 1000
		}
	}
	negative := 0
	for i, sum := range layers {
		if sum > plain[i] {
			negative++
		}
	}
	l.set("trace.negative_frac", float64(negative)/float64(nq), nq)
	res.Metrics = l.metrics()
	return res, finishTrace(o, sp, l, stderr, errs)
}
