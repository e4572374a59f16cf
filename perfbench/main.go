// Command perfbench is idxflow's benchmark. It starts the program inside
// its own process, drives one seeded workload for a fixed time, checks
// every answer and prints the metrics as a JSON line.
//
//	perfbench --workload phase-720|small-flows|table6-columnar
//	          --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) replays the workload once per layer boundary and reports the
// per-layer metrics, writing its spans and layer table under
// .bench_build/trace/. The last line of standard output is the result
// object; the process exits non-zero when any audit or answer check fails.
// perfbench/run.sh builds and runs it; see perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// minRounds is the fewest set-up-and-measure rounds a run makes, so
	// setup_s is a median and the latency percentiles pool several
	// rounds.
	minRounds = 3
	// maxWall stops starting rounds after this long, keeping a run far
	// inside its three-minute limit whatever --seconds asks.
	maxWall = 120 * time.Second
	// phaseProbeReads is phase-720's read probe per round.
	phaseProbeReads = 1000
	// smallWrites is small-flows' submissions per tenant per round.
	smallWrites = 260
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var procStart = time.Now()

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "phase-720 | small-flows | table6-columnar")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds (at least three rounds run)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer replay instead of the timed run")
	flag.Parse()
	o.trace = trace == 1
	os.Exit(run(o, os.Stdout, os.Stderr))
}

func run(o options, stdout, stderr io.Writer) int {
	var (
		res result
		err error
	)
	switch {
	case o.workload == "table6-columnar" && o.trace:
		res, err = traceTable6(o, stderr)
	case o.workload == "table6-columnar":
		res, err = timedTable6(o)
	case o.workload == "phase-720" || o.workload == "small-flows":
		mk := planFor(o.workload)
		if o.trace {
			res, err = traceService(o, mk, stderr)
		} else {
			res, err = timedService(o, mk)
		}
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if res.Metrics == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Correct = err == nil
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(stderr, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: FAILED: %v\n", err)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}

func planFor(workload string) func(int64) (*plan, error) {
	if workload == "phase-720" {
		return func(seed int64) (*plan, error) { return phasePlan(seed, phaseProbeReads) }
	}
	return func(seed int64) (*plan, error) { return smallPlan(seed, smallWrites) }
}

// moreRounds decides whether a run starts another round.
func moreRounds(round int, timed time.Duration, o options) bool {
	if round < minRounds {
		return true
	}
	return timed.Seconds() < o.seconds && time.Since(procStart) < maxWall
}

// release hands the previous round's memory back before the next set-up,
// so rounds start alike and peak RSS reflects one round.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// round is one set-up-and-measure round of an untraced run.
type round struct {
	lat, reads samples // milliseconds
	ok         int
	window     time.Duration
}

// tally accumulates an untraced run's rounds. Throughput is taken per
// round and reported as the median over rounds, so a transient stall in
// one round does not move it. Percentiles are taken over the samples of
// all rounds pooled: a median of thousands of samples moves less than a
// median of per-round medians, and a tail needs every sample the run has,
// with at least ten beyond it. Reads report p95, not p99: on the service workloads
// their top 1% is the slowest tenth of the /v1/qaas snapshots, which copy
// every provenance ring while the collector scans those rings, and it
// moved by up to 30% of its median between runs of one build.
type tally struct {
	rounds    []round
	setups    samples
	attempted int
	timed     time.Duration
	errs      []error
}

func (t *tally) fail(err error) {
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err)
	}
}

func (t *tally) add(r round) {
	t.rounds = append(t.rounds, r)
	t.timed += r.window
	fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, %d ok in %.3fs, latency p50 %.4g p99 %.4g ms, read p50 %.4g p95 %.4g ms\n",
		len(t.rounds)-1, t.setups[len(t.setups)-1], r.ok, r.window.Seconds(),
		r.lat.quantile(0.5), r.lat.quantile(0.99), r.reads.quantile(0.5), r.reads.quantile(0.95))
}

// pooled returns the samples f picks from every round.
func (t *tally) pooled(f func(r round) samples) samples {
	var all samples
	for _, r := range t.rounds {
		all = append(all, f(r)...)
	}
	return all
}

// median returns the median over rounds of f(round).
func (t *tally) median(f func(r round) float64) float64 {
	var s samples
	for _, r := range t.rounds {
		s = append(s, f(r))
	}
	return s.quantile(0.5)
}

func (t *tally) result(finished int, costPerFlow float64) (result, error) {
	res := result{Attempted: t.attempted}
	ok := 0
	for _, r := range t.rounds {
		ok += r.ok
	}
	res.Failed = t.attempted - ok
	lat := t.pooled(func(r round) samples { return r.lat })
	reads := t.pooled(func(r round) samples { return r.reads })
	if n := lat.beyond(0.99); n < 10 {
		t.fail(fmt.Errorf("%d latency samples leave %d beyond p99, fewer than 10", len(lat), n))
	}
	if n := reads.beyond(0.95); n < 10 {
		t.fail(fmt.Errorf("%d read samples leave %d beyond p95, fewer than 10", len(reads), n))
	}
	res.Metrics = map[string]metricValue{
		"throughput_per_s":  {t.median(func(r round) float64 { return float64(r.ok) / r.window.Seconds() }), "1/s"},
		"latency_p50_ms":    {lat.quantile(0.50), "ms"},
		"latency_p99_ms":    {lat.quantile(0.99), "ms"},
		"read_p50_ms":       {reads.quantile(0.50), "ms"},
		"read_p95_ms":       {reads.quantile(0.95), "ms"},
		"ok_frac":           {float64(ok) / float64(t.attempted), "frac"},
		"setup_s":           {t.setups.quantile(0.50), "s"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"flows_finished":    {float64(finished), "count"},
		"cost_per_flow_usd": {costPerFlow, "usd"},
	}
	return res, errors.Join(t.errs...)
}

// timedService is an untraced service run: rounds of set-up, the plan
// over HTTP, then drain and audit, until --seconds of measured time.
func timedService(o options, mk func(int64) (*plan, error)) (result, error) {
	var (
		t        tally
		finished int
		cost     float64
	)
	for n := 0; moreRounds(n, t.timed, o); n++ {
		start := time.Now()
		p, err := mk(o.seed)
		if err != nil {
			return result{}, err
		}
		st, err := startStack(p.tenants)
		if err != nil {
			return result{}, err
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
		pr := drive(p, httpBackend{st})
		if err := st.close(); err != nil {
			t.fail(fmt.Errorf("round %d: shutdown: %w", n, err))
		}
		r := round{window: pr.window + pr.probeWindow}
		admitted := 0
		for _, oc := range pr.byID {
			if !oc.done {
				continue
			}
			t.attempted++
			if oc.err != nil {
				t.fail(fmt.Errorf("round %d: %s: %w", n, oc.kind, oc.err))
				continue
			}
			r.ok++
			if oc.kind == submitOp {
				r.lat = append(r.lat, msOf(oc.latency))
				admitted++
			} else {
				r.reads = append(r.reads, msOf(oc.latency))
			}
		}
		t.add(r)
		rep, err := settle(st.pipe, st.auditor, admitted)
		if err != nil {
			t.fail(fmt.Errorf("round %d audit: %w", n, err))
		}
		f, c := quality(p, pr, rep)
		if n == 0 {
			finished, cost = f, c
		} else if f != finished || c != cost {
			t.fail(fmt.Errorf("round %d finished %d flows at %g usd each, round 0 %d at %g: the replay is not deterministic",
				n, f, c, finished, cost))
		}
		release()
	}
	return t.result(finished, cost)
}

// timedTable6 is an untraced table6-columnar run: rounds of load, index
// build and the seeded query loop, every answer checked.
func timedTable6(o options) (result, error) {
	var (
		t       tally
		queries int
		cost    float64
	)
	for n := 0; moreRounds(n, t.timed, o); n++ {
		start := time.Now()
		tab, err := loadTable6(outPath("tmp"), o.seed)
		if err != nil {
			return result{}, err
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
		reads0, _ := tab.tab.IOStats()
		var r round
		for _, q := range tab.queries {
			tab.prepare(q)
			qs := time.Now()
			a, err := tab.run(q, nil)
			d := time.Since(qs)
			r.window += d
			t.attempted++
			if err == nil {
				err = tab.check(q, a)
			}
			if err != nil {
				t.fail(fmt.Errorf("round %d: %s: %w", n, q.kind, err))
				continue
			}
			r.ok++
			r.lat = append(r.lat, msOf(d))
			if q.kind.isRead() {
				r.reads = append(r.reads, msOf(d))
			}
		}
		t.add(r)
		reads1, _ := tab.tab.IOStats()
		c := pageReadCost(reads1-reads0) / float64(len(tab.queries))
		if n == 0 {
			queries, cost = r.ok, c
		} else if r.ok != queries || c != cost {
			t.fail(fmt.Errorf("round %d verified %d queries at %g usd each, round 0 %d at %g", n, r.ok, c, queries, cost))
		}
		if err := tab.close(); err != nil {
			t.fail(err)
		}
		release()
	}
	return t.result(queries, cost)
}

// outPath names a path under the benchmark's output directory.
func outPath(name string) string { return ".bench_build/perfbench-" + name }

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) > 0 {
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
