package faults

import (
	"sync"
	"time"

	"u1/internal/protocol"
)

// Class buckets operations for shedding priority. Under overload the classes
// are refused in order: data transfers first (the bulk of a storm's bytes),
// metadata next, session management last — matching how the §5.4 operators
// kept the service reachable while refusing the leeching traffic.
type Class uint8

// Shedding classes, cheapest-to-shed first.
const (
	ClassData Class = iota
	ClassMetadata
	ClassSession
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassMetadata:
		return "metadata"
	case ClassSession:
		return "session"
	default:
		return "unknown"
	}
}

// ClassOf maps an operation to its shedding class.
func ClassOf(op protocol.Op) Class {
	switch {
	case op.IsData():
		return ClassData
	case op.IsSessionManagement():
		return ClassSession
	default:
		return ClassMetadata
	}
}

// threshold scales the watermark per class: data ops shed at the watermark,
// metadata at 2x, session management at 4x, so shedding degrades gracefully
// instead of going dark all at once.
func (c Class) threshold(watermark int) int {
	switch c {
	case ClassMetadata:
		return 2 * watermark
	case ClassSession:
		return 4 * watermark
	default:
		return watermark
	}
}

// AdmissionWindow is the trailing accounting window over which a process's
// in-flight load is measured.
const AdmissionWindow = time.Minute

// Admission is one API server machine's load-shedding state: per process,
// the admission timestamps of the trailing window. Safe for concurrent use
// (each process is independently locked, matching the per-proc request
// paths). now may be virtual (the simulator) or wall clock (the TCP stack);
// the only requirement is that it is roughly monotone per process.
type Admission struct {
	watermark int
	procs     []admProc
}

type admProc struct {
	mu      sync.Mutex
	entries []time.Time
}

// NewAdmission creates a controller for the given process count. A
// watermark <= 0 disables shedding (Admit always accepts and tracks
// nothing); use nil instead where possible.
func NewAdmission(procs, watermark int) *Admission {
	if procs < 1 {
		procs = 1
	}
	return &Admission{watermark: watermark, procs: make([]admProc, procs)}
}

// Admit decides whether proc may take one more op at time now, and if so
// charges it to the window. A CloseSession is charged but never shed: the
// transports forget a session before closing it, so a shed close would
// leave it live for good. Nil-safe: a nil controller admits everything.
func (a *Admission) Admit(proc int, op protocol.Op, now time.Time) bool {
	if a == nil || a.watermark <= 0 {
		return true
	}
	if proc < 0 || proc >= len(a.procs) {
		proc = 0
	}
	p := &a.procs[proc]
	p.mu.Lock()
	defer p.mu.Unlock()
	// Prune entries that left the window. Entries are appended in admission
	// order; under the sharded simulator timestamps may be mildly out of
	// order (bounded by the epoch skew), so filter rather than binary-search.
	cutoff := now.Add(-AdmissionWindow)
	live := p.entries[:0]
	for _, t := range p.entries {
		if t.After(cutoff) {
			live = append(live, t)
		}
	}
	p.entries = live
	if len(p.entries) >= ClassOf(op).threshold(a.watermark) && op != protocol.OpCloseSession {
		return false
	}
	p.entries = append(p.entries, now)
	return true
}
