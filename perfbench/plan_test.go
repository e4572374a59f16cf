package main

import (
	"fmt"
	"strings"
	"testing"

	"idxflow/internal/flowlang"
)

func TestPlansAreSeeded(t *testing.T) {
	for _, mk := range []func(int64) (*plan, error){
		func(seed int64) (*plan, error) { return smallPlan(seed, 40) },
		func(seed int64) (*plan, error) { return phasePlan(seed, 100) },
	} {
		a, err := mk(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := mk(8)
		if err != nil {
			t.Fatal(err)
		}
		if a.encode() != b.encode() {
			t.Errorf("%s: the same seed gave different request sequences", a.name)
		}
		if a.encode() == c.encode() {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", a.name)
		}
	}
}

// Every small-flow body parses, reads a partition of the tenant's file
// database and names one of its potential indexes; every read follows at
// least one admission of its tenant on the same connection.
func TestSmallFlowsAreValid(t *testing.T) {
	p, err := smallPlan(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	parts := make(map[string]map[string]bool)
	for _, name := range p.tenants {
		db, err := tenantDB(name)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = make(map[string]bool)
		for _, f := range db.Files {
			for _, pt := range f.Table.Partitions {
				parts[name][pt.Path] = true
			}
		}
		for c, script := range p.conns {
			for _, o := range script {
				if o.tenant != name || o.kind != submitOp {
					continue
				}
				flow, err := flowlang.ParseString(o.body)
				if err != nil {
					t.Fatalf("connection %d request %d: %v", c, o.id, err)
				}
				if len(flow.Graph.Ops()) != 2 || len(flow.Inputs) != 1 || len(flow.Indexes) != 1 {
					t.Fatalf("request %d: %d ops, %d inputs, %d indexes; want 2, 1, 1",
						o.id, len(flow.Graph.Ops()), len(flow.Inputs), len(flow.Indexes))
				}
				if !parts[name][flow.Inputs[0]] {
					t.Errorf("request %d reads %s, not a partition of %s", o.id, flow.Inputs[0], name)
				}
				if db.IndexByName(flow.Indexes[0].Index) == nil {
					t.Errorf("request %d names index %s, unknown to %s", o.id, flow.Indexes[0].Index, name)
				}
			}
		}
	}
	reads := 0
	for _, script := range p.conns {
		admitted := make(map[string]int)
		for _, o := range script {
			if o.kind == submitOp {
				admitted[o.tenant]++
				continue
			}
			reads++
			if admitted[o.tenant] == 0 {
				t.Errorf("read %d of %s precedes its first admission", o.id, o.tenant)
			}
		}
	}
	// Each connection writes 4 tenants x 60 flows with one read after
	// every four writes but the last.
	if want := conns * ((4*60 - 1) / 4); reads != want {
		t.Errorf("%d reads, want one per four submissions (%d)", reads, want)
	}
}

// A plan from a seed no measurement used must run clean against the real
// stack: every request succeeds and the drained pipeline audits clean.
func TestUnseenSeedRunsClean(t *testing.T) {
	for _, mk := range []func() (*plan, error){
		func() (*plan, error) { return smallPlan(2, 30) },
		func() (*plan, error) {
			p, err := phasePlan(2, 20)
			if err != nil {
				return nil, err
			}
			// The full horizon takes seconds; the first flows of each
			// tenant exercise the same path.
			for c := range p.conns {
				p.conns[c] = p.conns[c][:30]
			}
			return p, nil
		},
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		st, err := startStack(p.tenants)
		if err != nil {
			t.Fatal(err)
		}
		r := drive(p, httpBackend{st})
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		for id, oc := range r.byID {
			if oc.done && oc.err != nil {
				t.Errorf("%s request %d: %v", p.name, id, oc.err)
			}
		}
		if _, err := settle(st.pipe, st.auditor, countAdmitted(r)); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if !strings.Contains(p.encode(), "submit") {
			t.Errorf("%s: plan has no submissions", p.name)
		}
	}
}

// encode renders the plan's requests in send order per connection, one
// line header per request — the byte sequence the determinism test
// compares.
func (p *plan) encode() string {
	var b strings.Builder
	for c, script := range append(append([][]op(nil), p.conns...), p.probe...) {
		for _, o := range script {
			fmt.Fprintf(&b, "%d %d %s %s %d\n%s", c, o.id, o.kind, o.tenant, o.back, o.body)
		}
	}
	return b.String()
}
