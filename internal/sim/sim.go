// Package sim provides the deterministic discrete-event engine that replays
// a month of U1 client activity against the real back-end code in seconds of
// wall time. Events execute in (time, insertion) order on a virtual clock;
// the engine's Clock method plugs directly into client.DirectTransport so
// every API call and RPC span is stamped with simulation time.
package sim

import (
	"sync/atomic"
	"time"
)

// Engine is a single-threaded discrete-event scheduler. It is deliberately
// not safe for concurrent use: determinism is the point. The one concession
// to concurrency is the clock: the current time is mirrored into an atomic
// offset so Clock closures handed to transports stay race-free when another
// shard's goroutine (or an observer thread) stamps a span while this shard
// advances — see ShardedEngine.
type Engine struct {
	base   time.Time
	now    time.Time
	nowOff atomic.Int64 // now == base.Add(nowOff); the lock-free clock mirror
	events []event      // binary min-heap on (at, seq)
	seq    uint64
	ran    uint64
}

// New creates an engine starting at the given virtual time.
func New(start time.Time) *Engine {
	return &Engine{base: start, now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// setNow advances the clock and its atomic mirror together to off past base.
func (e *Engine) setNow(off int64) {
	e.now = e.base.Add(time.Duration(off))
	e.nowOff.Store(off)
}

// Clock returns a closure suitable for client.DirectTransport. The closure
// reads the atomic clock mirror, so it is safe to call from any goroutine
// while the engine runs (transports stamp spans from worker goroutines under
// the sharded engine).
func (e *Engine) Clock() func() time.Time {
	return func() time.Time { return e.base.Add(time.Duration(e.nowOff.Load())) }
}

// At schedules fn at time t. Events scheduled in the past run at the current
// time (the engine never moves backwards).
func (e *Engine) At(t time.Time, fn func()) {
	if t.Before(e.now) {
		t = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: int64(t.Sub(e.base)), seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
}

// After schedules fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the earliest pending event, advancing the clock to it. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	n := len(e.events)
	if n == 0 {
		return false
	}
	ev := e.events[0]
	e.events[0] = e.events[n-1]
	e.events[n-1] = event{} // drop the closure reference
	e.events = e.events[:n-1]
	e.siftDown(0)
	e.setNow(ev.at)
	e.ran++
	ev.fn()
	return true
}

// RunUntil executes events up to and including horizon, leaving later events
// queued. It returns the number of events run.
func (e *Engine) RunUntil(horizon time.Time) uint64 {
	start := e.ran
	limit := int64(horizon.Sub(e.base))
	for len(e.events) > 0 && e.events[0].at <= limit {
		e.Step()
	}
	if e.nowOff.Load() < limit {
		e.setNow(limit)
	}
	return e.ran - start
}

// NextEventAt peeks at the earliest queued event time.
func (e *Engine) NextEventAt() (time.Time, bool) {
	if len(e.events) == 0 {
		return time.Time{}, false
	}
	return e.base.Add(time.Duration(e.events[0].at)), true
}

// Run drains the queue completely and returns the number of events run.
func (e *Engine) Run() uint64 {
	start := e.ran
	for e.Step() {
	}
	return e.ran - start
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Executed returns the number of events run so far.
func (e *Engine) Executed() uint64 { return e.ran }

// event is one scheduled callback, stored by value in the heap: at is the
// offset from the engine's base time in nanoseconds, seq the insertion number
// that breaks ties, so execution order is exactly (time, insertion).
type event struct {
	at  int64
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.events
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if right := least + 1; right < len(h) && h[right].before(&h[least]) {
			least = right
		}
		if !h[least].before(&h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
