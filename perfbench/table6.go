package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"idxflow/internal/bptree"
	"idxflow/internal/cloud"
	"idxflow/internal/exec"
	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
)

const (
	// table6Scale generates 2.4M lineitem rows: even the 4-byte columns
	// (9.6 MB) are more than 8x the 256-frame (1 MiB) buffer pool, so
	// every column scan streams pages through the pool.
	table6Scale = 0.4
	table6Pool  = 256
	// lookupBatch is the number of keys one batched index lookup probes.
	lookupBatch = 64
	// perKind is the number of queries of each kind in a round. Three
	// rounds give more than 1,000 query latencies, at least ten beyond
	// their p99.
	perKind = 64
)

const (
	colOrderKey = iota
	colCommitDate
	colQuantity
)

type t6kind uint8

const (
	qScanRange  t6kind = iota // SelectRangeBlock over the orderkey column
	qIndexRange               // Tree.CountRange + Tree.Range
	qLookup                   // lookupBatch Tree.Get probes
	qOrderBy                  // VecSortKeys over commitdate
	qGroupBy                  // VecGroup of quantity by commitdate
	qJoin                     // VecSortMergeJoin of two orderkey samples
)

// t6mix is one round's query composition: every kind takes an equal
// share, exact and then shuffled. The range kinds split their share
// evenly between Table 6's large range select (2% of the keys, wide) and
// its small one (0.05%).
var t6mix = [...]struct {
	kind t6kind
	n    int
	wide bool
}{
	{qScanRange, perKind / 2, false}, {qScanRange, perKind / 2, true},
	{qIndexRange, perKind / 2, false}, {qIndexRange, perKind / 2, true},
	{qLookup, perKind, false}, {qOrderBy, perKind, false}, {qGroupBy, perKind, false},
	{qJoin, perKind, false},
}

// isRead reports whether a query only reads through the index: these are
// table6-columnar's reads.
func (k t6kind) isRead() bool { return k == qIndexRange || k == qLookup }

func (k t6kind) String() string {
	return [...]string{"scan-range", "index-range", "lookup", "order-by", "group-by", "join"}[k]
}

type t6query struct {
	kind   t6kind
	lo, hi int64   // ranges: lo <= orderkey < hi
	keys   []int64 // lookups
	join   joinSpec
}

// joinSpec picks a join's inputs: the keys of the rows at leftOff modulo
// stride, and of the rows at rightOff modulo stride/2, each side shuffled
// with shuffle. Strides differ from join to join, so the joins' sizes,
// and their costs, spread over a range.
type joinSpec struct {
	stride, leftOff, rightOff int
	shuffle                   int64
}

// table6 is one loaded lineitem table with its orderkey index and the
// in-memory reference answers every query is checked against.
type table6 struct {
	dir  string
	tab  *pagestore.ColumnTable
	tree *bptree.Tree
	// keys is the generator's orderkey column (ascending), kept apart from
	// the page file as the reference; prefix[i] is the sum of keys[:i].
	keys   []int64
	prefix []uint64
	rows   int
	// dateSum and qtySum are the commitdate and quantity column totals.
	dateSum, qtySum int64
	// left and right are the current join's inputs, set by prepare;
	// joinCount and joinSum are its reference answer.
	left, right []int64
	joinCount   int64
	joinSum     uint64
	build       time.Duration // index build time
	queries     []t6query
	// dates, qty, rowBuf and foundBuf are reused query buffers.
	dates    []int64
	qty      []int32
	rowBuf   []int64
	foundBuf []bool
}

// loadTable6 generates lineitem from seed into a fresh column table under
// parent, bulk-loads the orderkey index and prepares the seeded queries.
func loadTable6(parent string, seed int64) (*table6, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "table6-")
	if err != nil {
		return nil, err
	}
	t := &table6{dir: dir}
	if err := t.load(seed); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *table6) load(seed int64) error {
	tab, err := pagestore.CreateColumnTable(filepath.Join(t.dir, "lineitem.cols"), table6Pool,
		pagestore.ColSpec{Name: "orderkey", Width: 8},
		pagestore.ColSpec{Name: "commitdate", Width: 4},
		pagestore.ColSpec{Name: "quantity", Width: 4})
	if err != nil {
		return err
	}
	t.tab = tab
	const batch = 4096
	bok := make([]int64, 0, batch)
	bcd := make([]int64, 0, batch)
	bq := make([]int64, 0, batch)
	t.keys = make([]int64, 0, int(tpch.RowsPerScale*table6Scale)+8)
	var loadErr error
	flush := func() {
		if loadErr == nil && len(bok) > 0 {
			loadErr = tab.AppendBatch(bok, bcd, bq)
		}
		bok, bcd, bq = bok[:0], bcd[:0], bq[:0]
	}
	tpch.GenerateEach(table6Scale, seed, func(r tpch.Row) {
		bok = append(bok, r.OrderKey)
		bcd = append(bcd, int64(r.CommitDate))
		bq = append(bq, int64(r.Quantity))
		t.keys = append(t.keys, r.OrderKey)
		t.dateSum += int64(r.CommitDate)
		t.qtySum += int64(r.Quantity)
		if len(bok) == batch {
			flush()
		}
	})
	flush()
	if loadErr != nil {
		return loadErr
	}
	if err := tab.Flush(); err != nil {
		return err
	}
	t.rows = len(t.keys)
	t.prefix = make([]uint64, t.rows+1)
	for i, k := range t.keys {
		t.prefix[i+1] = t.prefix[i] + uint64(k)
	}

	// The orderkey index, bulk-loaded from the column's sorted keys and
	// their row positions.
	start := time.Now()
	col := make([]int64, 0, t.rows)
	if err := tab.ScanColumn(colOrderKey, func(_ int64, block []int64) bool {
		col = append(col, block...)
		return true
	}); err != nil {
		return err
	}
	sorted, pos := exec.VecSortKeysPositions(col)
	vals := make([]int64, len(pos))
	for i, p := range pos {
		vals[i] = int64(p)
	}
	if t.tree, err = bptree.BulkLoadSorted(bptree.DefaultOrder, sorted, vals); err != nil {
		return err
	}
	t.build = time.Since(start)

	t.queries = t.makeQueries(rand.New(rand.NewSource(seed)))
	return nil
}

// prepare sets up what query q needs before it runs, outside its timed
// call: a join's inputs, drawn from the generator's orderkey column, and
// its reference answer. The other kinds need nothing.
func (t *table6) prepare(q t6query) {
	if q.kind != qJoin {
		return
	}
	js := q.join
	// A left key k meets every right row among the rows holding k, a
	// run of at most seven rows around the left row, since keys are
	// ascending: upTo counts the right rows below a row.
	m, r := js.stride/2, js.rightOff
	upTo := func(n int) int {
		if n <= r {
			return 0
		}
		return (n - r + m - 1) / m
	}
	t.left, t.right = t.left[:0], t.right[:0]
	t.joinCount, t.joinSum = 0, 0
	for i := js.leftOff; i < len(t.keys); i += js.stride {
		k := t.keys[i]
		a, b := i, i+1
		for a > 0 && t.keys[a-1] == k {
			a--
		}
		for b < len(t.keys) && t.keys[b] == k {
			b++
		}
		n := upTo(b) - upTo(a)
		t.joinCount += int64(n)
		t.joinSum += uint64(n) * uint64(k)
		t.left = append(t.left, k)
	}
	for i := r; i < len(t.keys); i += m {
		t.right = append(t.right, t.keys[i])
	}
	rng := rand.New(rand.NewSource(js.shuffle))
	rng.Shuffle(len(t.left), func(i, j int) { t.left[i], t.left[j] = t.left[j], t.left[i] })
	rng.Shuffle(len(t.right), func(i, j int) { t.right[i], t.right[j] = t.right[j], t.right[i] })
}

func (t *table6) makeQueries(rng *rand.Rand) []t6query {
	maxKey := t.keys[len(t.keys)-1]
	var qs []t6query
	for _, m := range t6mix {
		w := maxKey/2000 + 1
		if m.wide {
			w = maxKey/50 + 1
		}
		for i := 0; i < m.n; i++ {
			q := t6query{kind: m.kind}
			switch m.kind {
			case qScanRange, qIndexRange:
				q.lo = 1 + rng.Int63n(maxKey-w)
				q.hi = q.lo + w
			case qLookup:
				q.keys = make([]int64, lookupBatch)
				for j := range q.keys {
					q.keys[j] = 1 + rng.Int63n(maxKey)
				}
			case qJoin:
				// Log-uniform strides from 8 to 256 rows: the left side
				// holds 0.4% to 12.5% of the rows, the right twice as many.
				stride := int(math.Exp2(3+5*rng.Float64())) &^ 1
				q.join = joinSpec{stride: stride, leftOff: rng.Intn(stride),
					rightOff: rng.Intn(stride / 2), shuffle: rng.Int63()}
			}
			qs = append(qs, q)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func (t *table6) close() error {
	var err error
	if t.tab != nil {
		err = t.tab.Close()
	}
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// pageReadCost prices page reads with the paper's cloud model: the
// container time to read them from local disk, billed per quantum.
func pageReadCost(pages int64) float64 {
	spec, price := cloud.DefaultSpec(), cloud.DefaultPricing()
	mb := float64(pages) * pagestore.PageSize / 1e6
	return spec.DiskSeconds(mb) / price.QuantumSeconds * price.VMPerQuantum
}

// lowerBound is the first row whose orderkey is >= k.
func (t *table6) lowerBound(k int64) int {
	return sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= k })
}

// refRange is the reference count and key sum of lo <= orderkey < hi.
func (t *table6) refRange(lo, hi int64) (int64, uint64) {
	a, b := t.lowerBound(lo), t.lowerBound(hi)
	return int64(b - a), t.prefix[b] - t.prefix[a]
}

// q6trace accumulates one query's per-layer times when the run is traced;
// a nil *q6trace records nothing.
type q6trace struct {
	sp     *spans
	req    int
	parent int
}

func (tr *q6trace) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records a layer call that began at start and returns its ID.
func (tr *q6trace) span(name string, start time.Time) int {
	if tr == nil {
		return 0
	}
	return tr.sp.add(spanRec{Pass: 1, Req: tr.req, Parent: tr.parent, Name: name}, start, time.Since(start))
}

// readColumn reads a whole column through the buffer pool into dst.
func (t *table6) readColumn(ci int, dst []int64, tr *q6trace) ([]int64, error) {
	start := tr.now()
	err := t.tab.ScanColumn(ci, func(_ int64, block []int64) bool {
		dst = append(dst, block...)
		return true
	})
	tr.span("pagestore.scan", start)
	return dst, err
}

// answer is what one query returned; check compares it with the
// reference outside the timed call.
type answer struct {
	count  int64
	sum    uint64
	n      int     // index ranges: CountRange's count
	rows   []int64 // index ranges: row positions; lookups: the rows found
	found  []bool  // lookups
	sorted []int64 // order-by
	groups []exec.Group
	pairs  []exec.JoinPair
}

// run executes one query. Its buffers are reused by the next query.
func (t *table6) run(q t6query, tr *q6trace) (answer, error) {
	var a answer
	switch q.kind {
	case qScanRange:
		var sel [exec.BatchSize]int32
		var selectTime time.Duration
		start := tr.now()
		err := t.tab.ScanColumn(colOrderKey, func(_ int64, block []int64) bool {
			for off := 0; off < len(block); off += exec.BatchSize {
				end := min(off+exec.BatchSize, len(block))
				s := tr.now()
				lanes := exec.SelectRangeBlock(block[off:end], q.lo, q.hi, sel[:0])
				if tr != nil {
					selectTime += time.Since(s)
				}
				for _, lane := range lanes {
					a.count++
					a.sum += uint64(block[off+int(lane)])
				}
			}
			return true
		})
		if scan := tr.span("pagestore.scan", start); scan != 0 {
			// Block-level select calls are too many to record one by one;
			// their total is recorded as one child of the scan.
			tr.sp.add(spanRec{Pass: 1, Req: tr.req, Parent: scan, Name: "exec.select"}, start, selectTime)
		}
		return a, err
	case qIndexRange:
		start := tr.now()
		a.n = t.tree.CountRange(q.lo, q.hi)
		a.rows = t.rowBuf[:0]
		t.tree.Range(q.lo, q.hi, func(k, v int64) bool {
			a.count++
			a.sum += uint64(k)
			a.rows = append(a.rows, v)
			return true
		})
		t.rowBuf = a.rows
		tr.span("bptree.range", start)
	case qLookup:
		start := tr.now()
		a.rows, a.found = t.rowBuf[:0], t.foundBuf[:0]
		for _, k := range q.keys {
			v, ok := t.tree.Get(k)
			a.rows, a.found = append(a.rows, v), append(a.found, ok)
		}
		t.rowBuf, t.foundBuf = a.rows, a.found
		tr.span("bptree.get", start)
	case qOrderBy:
		dates, err := t.readColumn(colCommitDate, t.dates[:0], tr)
		t.dates = dates
		if err != nil {
			return a, err
		}
		start := tr.now()
		a.sorted = exec.VecSortKeys(dates)
		tr.span("exec.sort", start)
	case qGroupBy:
		dates, err := t.readColumn(colCommitDate, t.dates[:0], tr)
		t.dates = dates
		if err != nil {
			return a, err
		}
		start := tr.now()
		qty := t.qty[:0]
		err = t.tab.ScanColumn(colQuantity, func(_ int64, block []int64) bool {
			for _, v := range block {
				qty = append(qty, int32(v))
			}
			return true
		})
		t.qty = qty
		tr.span("pagestore.scan", start)
		if err != nil {
			return a, err
		}
		start = tr.now()
		a.groups = exec.VecGroup(dates, qty)
		tr.span("exec.group", start)
	case qJoin:
		start := tr.now()
		a.pairs = exec.VecSortMergeJoin(t.left, t.right)
		tr.span("exec.join", start)
	}
	return a, nil
}

// check compares a query's answer with the reference: range counts and
// key checksums, the rows an index returned, sort order, group-by totals
// against the column totals, and every join pair's keys.
func (t *table6) check(q t6query, a answer) error {
	switch q.kind {
	case qScanRange:
		if wc, ws := t.refRange(q.lo, q.hi); a.count != wc || a.sum != ws {
			return fmt.Errorf("scan range [%d,%d): count %d sum %d, want %d and %d", q.lo, q.hi, a.count, a.sum, wc, ws)
		}
	case qIndexRange:
		wc, ws := t.refRange(q.lo, q.hi)
		if int64(a.n) != wc || a.count != wc || a.sum != ws {
			return fmt.Errorf("index range [%d,%d): count %d/%d sum %d, want %d and %d", q.lo, q.hi, a.n, a.count, a.sum, wc, ws)
		}
		first := t.lowerBound(q.lo)
		for i, v := range a.rows {
			if v != int64(first+i) {
				return fmt.Errorf("index range [%d,%d): entry %d is row %d, want %d", q.lo, q.hi, i, v, first+i)
			}
		}
	case qLookup:
		for i, k := range q.keys {
			if want := int64(t.lowerBound(k)); !a.found[i] || a.rows[i] != want {
				return fmt.Errorf("lookup %d: row %d found %v, want row %d", k, a.rows[i], a.found[i], want)
			}
		}
	case qOrderBy:
		var sum int64
		for i, d := range a.sorted {
			if i > 0 && d < a.sorted[i-1] {
				return fmt.Errorf("order-by: row %d out of order", i)
			}
			sum += d
		}
		if len(a.sorted) != t.rows || sum != t.dateSum {
			return fmt.Errorf("order-by: %d rows summing to %d, want %d and %d", len(a.sorted), sum, t.rows, t.dateSum)
		}
	case qGroupBy:
		var count, total int64
		for i, g := range a.groups {
			if i > 0 && g.Key <= a.groups[i-1].Key {
				return fmt.Errorf("group-by: group %d key %d not ascending", i, g.Key)
			}
			count += g.Count
			total += g.SumQuantity
		}
		if count != int64(t.rows) || total != t.qtySum {
			return fmt.Errorf("group-by: counts sum to %d and quantities to %d, want %d and %d", count, total, t.rows, t.qtySum)
		}
	case qJoin:
		var sum uint64
		for _, p := range a.pairs {
			k := t.left[p.Left]
			if t.right[p.Right] != k {
				return fmt.Errorf("join: pair (%d,%d) joins keys %d and %d", p.Left, p.Right, k, t.right[p.Right])
			}
			sum += uint64(k)
		}
		if int64(len(a.pairs)) != t.joinCount || sum != t.joinSum {
			return fmt.Errorf("join: %d pairs summing to %d, want %d and %d", len(a.pairs), sum, t.joinCount, t.joinSum)
		}
	}
	return nil
}
