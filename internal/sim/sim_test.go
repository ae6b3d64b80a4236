package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

var t0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New(t0)
	var order []int
	e.At(t0.Add(3*time.Hour), func() { order = append(order, 3) })
	e.At(t0.Add(1*time.Hour), func() { order = append(order, 1) })
	e.At(t0.Add(2*time.Hour), func() { order = append(order, 2) })
	for e.Step() {
	}
	if n := e.Executed(); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if !e.Now().Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	e := New(t0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(t0.Add(time.Minute), func() { order = append(order, i) })
	}
	for e.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New(t0)
	var hits int
	var recur func()
	recur = func() {
		hits++
		if hits < 5 {
			e.After(time.Minute, recur)
		}
	}
	e.After(0, recur)
	for e.Step() {
	}
	if hits != 5 {
		t.Errorf("hits = %d", hits)
	}
	if want := t0.Add(4 * time.Minute); !e.Now().Equal(want) {
		t.Errorf("clock = %v, want %v", e.Now(), want)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New(t0)
	var ran []int
	for h := 1; h <= 5; h++ {
		h := h
		e.At(t0.Add(time.Duration(h)*time.Hour), func() { ran = append(ran, h) })
	}
	n := e.RunUntil(t0.Add(3 * time.Hour))
	if n != 3 || len(ran) != 3 {
		t.Fatalf("ran %d events: %v", n, ran)
	}
	if len(e.events) != 2 {
		t.Errorf("pending = %d", len(e.events))
	}
	// Clock parks exactly at the horizon when it lies beyond the last event.
	if !e.Now().Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("clock = %v", e.Now())
	}
	// The rest still runs.
	for e.Step() {
	}
	if len(ran) != 5 {
		t.Errorf("total ran = %v", ran)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	e := New(t0)
	e.At(t0.Add(time.Hour), func() {
		// Scheduling "yesterday" from inside an event must not rewind time.
		e.At(t0.Add(-time.Hour), func() {})
	})
	for e.Step() {
	}
	if e.Now().Before(t0.Add(time.Hour)) {
		t.Errorf("clock went backwards: %v", e.Now())
	}
	if e.Executed() != 2 {
		t.Errorf("executed = %d", e.Executed())
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := New(t0)
	var ok bool
	e.After(-time.Minute, func() { ok = true })
	for e.Step() {
	}
	if !ok || !e.Now().Equal(t0) {
		t.Errorf("ok=%v now=%v", ok, e.Now())
	}
}

func TestClockClosure(t *testing.T) {
	e := New(t0)
	clock := e.Clock()
	var seen time.Time
	e.At(t0.Add(time.Hour), func() { seen = clock() })
	for e.Step() {
	}
	if !seen.Equal(t0.Add(time.Hour)) {
		t.Errorf("clock inside event = %v", seen)
	}
}

// TestHeapOrderMatchesStableSort replays a seeded schedule — many equal
// timestamps, events scheduled in the past, events that schedule more events
// while they run — and checks the engine executes it in exactly the order a
// stable sort by (time, insertion) of the pending set picks at every step.
func TestHeapOrderMatchesStableSort(t *testing.T) {
	// children is a pure function of the event id, so the engine and the
	// model below grow the same schedule as long as they agree on the order.
	children := func(id int) []time.Duration {
		r := rand.New(rand.NewSource(int64(id)))
		if id >= 2000 {
			return nil
		}
		offs := make([]time.Duration, r.Intn(3))
		for i := range offs {
			// A few distinct instants, a third of them before "now".
			offs[i] = time.Duration(r.Intn(12)-4) * time.Minute
		}
		return offs
	}
	const roots = 400
	rootAt := func(id int) time.Time { return t0.Add(time.Duration(id%7-2) * time.Minute) }

	e := New(t0)
	var got []int
	next := roots
	var run func(id int) func()
	run = func(id int) func() {
		return func() {
			got = append(got, id)
			for _, off := range children(id) {
				e.At(e.Now().Add(off), run(next))
				next++
			}
		}
	}
	for id := 0; id < roots; id++ {
		e.At(rootAt(id), run(id))
	}
	for e.Step() {
	}

	type pendingEvent struct {
		at  time.Time
		seq int
		id  int
	}
	var want []int
	var pending []pendingEvent
	now, seq, nextID := t0, 0, roots
	schedule := func(at time.Time, id int) {
		if at.Before(now) {
			at = now
		}
		seq++
		pending = append(pending, pendingEvent{at, seq, id})
	}
	for id := 0; id < roots; id++ {
		schedule(rootAt(id), id)
	}
	for len(pending) > 0 {
		sort.SliceStable(pending, func(i, j int) bool {
			if !pending[i].at.Equal(pending[j].at) {
				return pending[i].at.Before(pending[j].at)
			}
			return pending[i].seq < pending[j].seq
		})
		ev := pending[0]
		pending = pending[1:]
		now = ev.at
		want = append(want, ev.id)
		for _, off := range children(ev.id) {
			schedule(now.Add(off), nextID)
			nextID++
		}
	}

	if len(got) != len(want) || uint64(len(got)) != e.Executed() {
		t.Fatalf("engine ran %d events (Executed %d), model %d", len(got), e.Executed(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: engine ran id %d, stable sort picks id %d", i, got[i], want[i])
		}
	}
	if !e.Now().Equal(now) {
		t.Errorf("clock = %v, model %v", e.Now(), now)
	}
}

// TestSchedulingAllocatesNothingAtSteadySize is the allocation guard of the
// event heap: with the heap at its working size, scheduling and running an
// event allocates nothing (events are stored by value, never boxed).
func TestSchedulingAllocatesNothingAtSteadySize(t *testing.T) {
	e := New(t0)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(t0.Add(time.Duration(i)*time.Second), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now().Add(time.Hour), fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("At+Step allocates %.0f times per event, want 0", allocs)
	}
	if len(e.events) != 1024 {
		t.Errorf("pending = %d, want the steady 1024", len(e.events))
	}
}
