package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"idxflow/internal/telemetry"
)

// spanRec is one span of the traced run, written as a JSONL line. Spans of
// one request share Req; Parent is the enclosing span's ID (0 for a root).
type spanRec struct {
	Workload string  `json:"workload"`
	Pass     int     `json:"pass"`
	Req      int     `json:"req"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Tenant   string  `json:"tenant,omitempty"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
}

// spans keeps the traced run's spans in memory until the run ends.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	recs  []spanRec
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// add records r with the given start and duration and returns its ID.
func (s *spans) add(r spanRec, start time.Time, d time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = len(s.recs) + 1
	r.StartUS = float64(start.Sub(s.epoch)) / float64(time.Microsecond)
	r.DurUS = float64(d) / float64(time.Microsecond)
	s.recs = append(s.recs, r)
	return r.ID
}

// setDur sets a recorded span's duration, for a root whose children were
// recorded before it ended.
func (s *spans) setDur(id int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[id-1].DurUS = float64(d) / float64(time.Microsecond)
}

// addTracer converts one replica tracer's events into spans. The program's
// spans carry no parent, so each gets the innermost earlier span whose
// interval contains it — spans of one tracer nest in LIFO order on one
// goroutine. Request IDs come from the benchmark's core.submit root spans.
// offset shifts the tracer's timestamps onto this recorder's epoch.
func (s *spans) addTracer(tenant string, pass int, events []telemetry.Event, offset float64) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Dur > events[j].Dur
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	type open struct {
		id, req int
		end     float64
	}
	var stack []open
	for _, e := range events {
		for len(stack) > 0 && stack[len(stack)-1].end < e.TS+e.Dur-1e-3 {
			stack = stack[:len(stack)-1]
		}
		r := spanRec{Pass: pass, Name: e.Name, Tenant: tenant,
			StartUS: e.TS + offset, DurUS: e.Dur, ID: len(s.recs) + 1}
		if len(stack) > 0 {
			r.Parent, r.Req = stack[len(stack)-1].id, stack[len(stack)-1].req
		} else if req, ok := e.Args["req"].(int); ok {
			r.Req = req
		}
		s.recs = append(s.recs, r)
		stack = append(stack, open{id: r.ID, req: r.Req, end: e.TS + e.Dur})
	}
}

// selves returns each span's self time — its duration minus its direct
// children's — in milliseconds, indexed like recs.
func (s *spans) selves() []float64 {
	out := make([]float64, len(s.recs))
	for i, r := range s.recs {
		out[i] += r.DurUS / 1000
		if r.Parent != 0 {
			out[r.Parent-1] -= r.DurUS / 1000
		}
	}
	return out
}

// selfByReq sums, per request of the given pass, each span name's self
// time in milliseconds.
func (s *spans) selfByReq(pass int) map[int]map[string]float64 {
	self := s.selves()
	out := make(map[int]map[string]float64)
	for i, r := range s.recs {
		if r.Pass != pass {
			continue
		}
		m := out[r.Req]
		if m == nil {
			m = make(map[string]float64)
			out[r.Req] = m
		}
		m[r.Name] += self[i]
	}
	return out
}

// spanSelves returns the self time of every span of the given pass and
// name, in milliseconds.
func (s *spans) spanSelves(pass int, name string) samples {
	self := s.selves()
	var out samples
	for i, r := range s.recs {
		if r.Pass == pass && r.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// durations returns every span's duration of the given pass and name, in
// milliseconds.
func (s *spans) durations(pass int, name string) samples {
	var out samples
	for _, r := range s.recs {
		if r.Pass == pass && r.Name == name {
			out = append(out, r.DurUS/1000)
		}
	}
	return out
}

func (s *spans) writeJSONL(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range s.recs {
		r.Workload = workload
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one per-layer metric of the traced run with its sample
// count and the end-to-end metric it should move.
type layerRow struct {
	name    string
	unit    string
	value   float64
	n       int
	moves   string
	applies bool
}

// layers collects a traced run's per-layer metrics in a fixed order.
type layers struct{ rows []layerRow }

func (l *layers) set(name string, value float64, n int) {
	for i := range l.rows {
		if l.rows[i].name == name {
			l.rows[i].value, l.rows[i].n, l.rows[i].applies = value, n, true
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// newLayers lists every per-layer metric; those a workload does not
// exercise stay at 0 with no samples.
func newLayers() *layers {
	l := &layers{}
	for _, m := range perLayer {
		l.rows = append(l.rows, layerRow{name: m.Name, unit: m.Unit, moves: m.moves})
	}
	return l
}

func (l *layers) writeTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer metrics, workload %s\n", workload)
	fmt.Fprintf(w, "%-32s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "should move")
	for _, r := range l.rows {
		if !r.applies {
			fmt.Fprintf(w, "%-32s %14s %-6s %8s  %s\n", r.name, "-", r.unit, "0", "(not on this workload's path)")
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %8d  %s\n", r.name, r.value, r.unit, r.n, r.moves)
	}
}

func (l *layers) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(l.rows))
	for _, r := range l.rows {
		out[r.name] = metricValue{Value: r.value, Unit: r.unit}
	}
	return out
}

// traceDir is where a traced run writes its spans and layer table.
func traceDir(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", workload, seed))
	return dir, os.MkdirAll(dir, 0o755)
}
