package main

import (
	"testing"

	"idxflow/internal/exec"
)

// Every query kind answers correctly, and check rejects a tampered answer
// of each kind.
func TestTable6ChecksCatchWrongAnswers(t *testing.T) {
	tab, err := loadTable6(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.close()
	seen := make(map[t6kind]bool)
	for _, q := range tab.queries {
		if seen[q.kind] {
			continue
		}
		seen[q.kind] = true
		tab.prepare(q)
		a, err := tab.run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.kind, err)
		}
		if err := tab.check(q, a); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", q.kind, err)
		}
		switch q.kind {
		case qScanRange, qIndexRange:
			a.sum++
		case qLookup:
			a.rows[0]++
		case qOrderBy:
			a.sorted[0], a.sorted[len(a.sorted)-1] = a.sorted[len(a.sorted)-1], a.sorted[0]
		case qGroupBy:
			a.groups[0].SumQuantity--
		case qJoin:
			if len(a.pairs) == 0 {
				t.Fatalf("join found no pairs for %d left keys", len(tab.left))
			}
			a.pairs = append(a.pairs, exec.JoinPair{Left: a.pairs[0].Left, Right: a.pairs[0].Right})
		}
		if err := tab.check(q, a); err == nil {
			t.Errorf("%s: tampered answer accepted", q.kind)
		}
	}
	if len(seen) != 6 {
		t.Errorf("the query sequence covers %d kinds, want 6", len(seen))
	}
}
