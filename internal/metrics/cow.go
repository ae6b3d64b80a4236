package metrics

import (
	"sync"
	"sync/atomic"
)

// ObserverList is a copy-on-write list: an atomic pointer to an immutable
// slice. Readers load the pointer and iterate without locking — the
// hot-path side — while writers copy, append and swap under a small mutex.
// The RPC tier and the API servers keep their observers in one, which makes
// attaching the trace collector to a live cluster race-free. The zero value
// is an empty list ready for use. Load is wait-free; Add serializes writers
// only.
type ObserverList[T any] struct {
	p  atomic.Pointer[[]T]
	mu sync.Mutex
}

// Add appends v by swapping in a copy of the current slice. Concurrent
// readers keep their immutable snapshot and see v on their next Load.
func (l *ObserverList[T]) Add(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var next []T
	if cur := l.p.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, v)
	l.p.Store(&next)
}

// Load returns the current immutable snapshot; callers must not mutate it.
// A nil slice means the list is empty.
func (l *ObserverList[T]) Load() []T {
	if cur := l.p.Load(); cur != nil {
		return *cur
	}
	return nil
}
