package main

import (
	"fmt"
	"math/rand"
	"strings"

	"idxflow/internal/flowlang"
	"idxflow/internal/qaas"
	"idxflow/internal/workload"
)

const (
	// serverSeed is idxflow-server's -seed default. Every tenant's file
	// database derives from it server-side (qaas.TenantSeed), and the
	// benchmark rebuilds the same databases to write valid flows. The
	// workload seed only varies the requests: the program receives
	// nothing but them.
	serverSeed = 1
	// horizonSeconds is the §6.5 horizon: 720 quanta of 60 s.
	horizonSeconds = 43200
	// conns is the number of keep-alive client connections, each a
	// closed loop: at most nproc on the 2-CPU machine the benchmark
	// targets, fixed so every machine splits tenants the same way.
	conns = 2
)

type opKind uint8

const (
	submitOp    opKind = iota
	flowRead           // GET /debug/flows/{id}
	indexesRead        // GET /v1/indexes
	qaasRead           // GET /v1/qaas
)

func (k opKind) String() string {
	return [...]string{"submit", "flow", "indexes", "qaas"}[k]
}

// op is one request of a plan.
type op struct {
	id     int // position in the plan, unique across connections
	kind   opKind
	tenant string
	body   string // submitOp: the flowlang text
	// back picks a recent flow for flowRead: the tenant's latest admitted
	// flow ID minus back (never below 1).
	back int
}

// plan is a service workload's seeded request sequence.
type plan struct {
	name    string
	tenants []string
	// conns[c] is connection c's script, issued in order. Each tenant is
	// owned by exactly one connection, so its requests stay in order.
	conns [][]op
	// horizon, when positive, stops a tenant once a response ends at or
	// after it; the tenant's remaining submissions are skipped, as
	// core.Service.RunCtx stops at its horizon.
	horizon float64
	// probe holds read requests issued after every submission settled.
	probe [][]op
	// ops counts the ids handed out.
	ops int
}

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return out
}

// tenantDB rebuilds the file database the pipeline gives tenant name.
func tenantDB(name string) (*workload.FileDB, error) {
	db, err := workload.NewFileDB(qaas.TenantSeed(serverSeed, name))
	if err != nil {
		return nil, fmt.Errorf("tenant %s database: %w", name, err)
	}
	return db, nil
}

// owned returns the tenant indexes connection c owns: c, c+conns, ...
func owned(c, tenants int) []int {
	var out []int
	for t := c; t < tenants; t += conns {
		out = append(out, t)
	}
	return out
}

// readKinds deals n read endpoints in a seeded order: 50% flow
// explanations, 40% index listings, 10% pipeline snapshots. The shares are
// exact, so a tail percentile always falls at the same rank of the same
// endpoint's latencies.
func readKinds(rng *rand.Rand, n int) []opKind {
	kinds := make([]opKind, n)
	for i := range kinds {
		switch {
		case i < n/2:
			kinds[i] = flowRead
		case i < n*9/10:
			kinds[i] = indexesRead
		default:
			kinds[i] = qaasRead
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

func (p *plan) add(c int, o op) {
	o.id = p.ops
	p.ops++
	p.conns[c] = append(p.conns[c], o)
}

func (p *plan) addProbe(c int, o op) {
	o.id = p.ops
	p.ops++
	p.probe[c] = append(p.probe[c], o)
}

// phasePlan builds phase-720: six tenants, each running the §6.5 phase
// generator (λ = 60 s) seeded from qaas.TenantSeed(seed, tenant). Each
// connection round-robins its three tenants; a tenant drops out at the
// 720-quantum horizon. probeReads reads then query the settled state.
func phasePlan(seed int64, probeReads int) (*plan, error) {
	const tenants = 6
	p := &plan{name: "phase-720", tenants: tenantNames(tenants), horizon: horizonSeconds,
		conns: make([][]op, conns), probe: make([][]op, conns)}
	bodies := make([][]string, tenants)
	for i, name := range p.tenants {
		db, err := tenantDB(name)
		if err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(db, qaas.TenantSeed(seed, name))
		for _, f := range gen.PhaseWorkload(workload.DefaultPhases(), 60) {
			bodies[i] = append(bodies[i], flowlang.Marshal(f))
		}
	}
	for c := 0; c < conns; c++ {
		mine := owned(c, tenants)
		for k := 0; ; k++ {
			more := false
			for _, t := range mine {
				if k < len(bodies[t]) {
					p.add(c, op{kind: submitOp, tenant: p.tenants[t], body: bodies[t][k]})
					more = true
				}
			}
			if !more {
				break
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := readKinds(rng, probeReads)
	for j, kind := range kinds {
		c := j % conns
		mine := owned(c, tenants)
		t := mine[(j/conns)%len(mine)]
		p.addProbe(c, op{kind: kind, tenant: p.tenants[t], back: rng.Intn(8)})
	}
	return p, nil
}

// smallFlow writes a two-operator flow — a range scan of one partition
// plus an aggregate — with one potential index of the scanned file. Each
// choice follows the repository's workload generator (workload.Generator
// .Flow) for a flow with one reader: the file is drawn uniformly; the
// index is the generator's stable primary column for its first reader,
// (0*7+3) mod 4, nine times in ten and a uniform column otherwise; one
// Table 6 speedup covers the reader and its successor. Operator times are
// drawn from the Table 4 runtime statistics of the file's application, as
// a normal truncated to its range, and the edge carries the scanned
// partition's size.
func smallFlow(rng *rand.Rand, db *workload.FileDB, name string, issued int) string {
	f := db.Files[rng.Intn(len(db.Files))]
	col := (0*7 + 3) % len(f.Indexes)
	if rng.Float64() < 0.1 {
		col = rng.Intn(len(f.Indexes))
	}
	pt := f.Table.Partitions[rng.Intn(len(f.Table.Partitions))]
	speedup := workload.Table6Speedups[rng.Intn(len(workload.Table6Speedups))]
	st := workload.Table4(f.App)
	var b strings.Builder
	fmt.Fprintf(&b, "flow %s issued=%d\n", name, issued)
	fmt.Fprintf(&b, "input %s\n", pt.Path)
	fmt.Fprintf(&b, "op scan kind=range time=%.2f reads=%s\n", opTime(rng, st), pt.Path)
	fmt.Fprintf(&b, "op agg kind=aggregate time=%.2f\n", opTime(rng, st))
	fmt.Fprintf(&b, "edge scan -> agg size=%.6g\n", f.Table.PartitionSizeMB(pt))
	fmt.Fprintf(&b, "index %s ops=scan:%g,agg:%g\n", f.Indexes[col].Name(), speedup, speedup)
	return b.String()
}

// opTime draws an operator runtime in seconds from N(MeanT, StdevT)
// truncated to [MinT, MaxT], by rejection as the workload generator does.
func opTime(rng *rand.Rand, st workload.Stats) float64 {
	for i := 0; i < 64; i++ {
		if v := rng.NormFloat64()*st.StdevT + st.MeanT; v >= st.MinT && v <= st.MaxT {
			return v
		}
	}
	return min(max(st.MeanT, st.MinT), st.MaxT)
}

// smallPlan builds small-flows: eight tenants, writesPerTenant two-operator
// flows each. Every fifth request of a connection is a read of one of its
// tenants.
func smallPlan(seed int64, writesPerTenant int) (*plan, error) {
	const tenants = 8
	p := &plan{name: "small-flows", tenants: tenantNames(tenants),
		conns: make([][]op, conns), probe: make([][]op, conns)}
	bodies := make([][]string, tenants)
	for i, name := range p.tenants {
		db, err := tenantDB(name)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(qaas.TenantSeed(seed, name)))
		for k := 0; k < writesPerTenant; k++ {
			bodies[i] = append(bodies[i], smallFlow(rng, db, fmt.Sprintf("small-%d", k), 60*k))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < conns; c++ {
		mine := owned(c, tenants)
		writes, reads := 0, 0
		// One read follows every four writes, until the last write.
		kinds := readKinds(rng, (len(mine)*writesPerTenant-1)/4)
		for writes < len(mine)*writesPerTenant {
			if len(p.conns[c])%5 == 4 {
				t := mine[reads%len(mine)]
				p.add(c, op{kind: kinds[reads], tenant: p.tenants[t], back: rng.Intn(4)})
				reads++
				continue
			}
			t := mine[writes%len(mine)]
			p.add(c, op{kind: submitOp, tenant: p.tenants[t], body: bodies[t][writes/len(mine)]})
			writes++
		}
	}
	return p, nil
}
