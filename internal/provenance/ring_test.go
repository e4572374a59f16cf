package provenance

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// refRing is the recorder's original ring, kept as a golden reference:
// capacity slots allocated up front, Snapshot copying the whole ring and
// FlowEvents filtering that copy. The growing Recorder must agree with it
// on every observable.
type refRing struct {
	buf  []Event
	next uint64
}

func newRefRing(capacity int) *refRing { return &refRing{buf: make([]Event, capacity)} }

func (r *refRing) Append(e Event) {
	e.Seq = r.next
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
}

func (r *refRing) Len() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

func (r *refRing) Total() uint64 { return r.next }

func (r *refRing) Dropped() uint64 {
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

func (r *refRing) Snapshot() []Event {
	if r.next == 0 {
		return nil
	}
	c := uint64(len(r.buf))
	if r.next <= c {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	head := r.next % c
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

func (r *refRing) FlowEvents(id FlowID) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.Flow == id {
			out = append(out, e)
		}
	}
	return out
}

func (r *refRing) Reset() { r.next = 0 }

// agree fails the test unless rec and ref are observably identical.
func agree(t *testing.T, step string, rec *Recorder, ref *refRing) {
	t.Helper()
	if got, want := rec.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot differs: got %d events, want %d", step, len(got), len(want))
	}
	if rec.Len() != ref.Len() || rec.Total() != ref.Total() || rec.Dropped() != ref.Dropped() {
		t.Fatalf("%s: len/total/dropped = %d/%d/%d, want %d/%d/%d", step,
			rec.Len(), rec.Total(), rec.Dropped(), ref.Len(), ref.Total(), ref.Dropped())
	}
	for id := FlowID(0); id <= 4; id++ {
		if got, want := rec.FlowEvents(id), ref.FlowEvents(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FlowEvents(%d) differs: got %v, want %v", step, id, got, want)
		}
	}
}

// TestRecorderMatchesReference drives the growing recorder and the
// reference ring with the same seeded appends and resets, across small
// capacities (several wraps) and capacities spanning several chunks.
func TestRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(capacity int) {
		rec, ref := NewRecorder(capacity), newRefRing(capacity)
		agree(t, "empty", rec, ref)
		for phase := 0; phase < 2; phase++ {
			n := rng.Intn(3*capacity + 1)
			for i := 0; i < n; i++ {
				e := Event{Kind: Kind(rng.Intn(int(numKinds))), Flow: FlowID(rng.Intn(5)), T: float64(i), Count: i}
				rec.Append(e)
				ref.Append(e)
				if rng.Intn(capacity) == 0 {
					agree(t, "mid-append", rec, ref)
				}
			}
			agree(t, "after appends", rec, ref)
			if rng.Intn(2) == 0 {
				rec.Reset()
				ref.Reset()
				agree(t, "after reset", rec, ref)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		check(1 + rng.Intn(64))
	}
	for _, capacity := range []int{chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 7} {
		check(capacity)
	}
}

// TestSelectLimitMatchesTail checks that a limited Select returns the last
// matches of the unlimited one, across the ring's wrap and chunk edges.
func TestSelectLimitMatchesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, capacity := range []int{1, 7, 64, chunkSize + 3} {
		rec := NewRecorder(capacity)
		for i := 0; i < 2*capacity+5; i++ {
			rec.Append(Event{Kind: Kind(rng.Intn(3)), Flow: FlowID(rng.Intn(3))})
		}
		kind := Kind(1)
		all := rec.Select(Filter{Kind: &kind})
		for _, limit := range []int{0, 1, 2, len(all) / 2, len(all), len(all) + 1} {
			got := rec.Select(Filter{Kind: &kind, Limit: &limit})
			want := all[len(all)-min(limit, len(all)):]
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d limit %d: got %d events, want the last %d", capacity, limit, len(got), len(want))
			}
		}
	}
}

// TestRecorderMemoryFollowsUse pins the point of the growing ring: a
// recorder with the server's default capacity that holds a few events
// costs one chunk, not the whole ring.
func TestRecorderMemoryFollowsUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(262144)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: KindFlowAdmitted, Flow: FlowID(i)})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewRecorder(262144) plus 10 appends allocated %d bytes, want < 1 MB", got)
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
}
