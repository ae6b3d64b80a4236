// Package spans is the benchmark's tracing: spans recorded only from
// benchmark files, around the benchmark's own calls into each layer, kept in
// memory and written out when the run ends. A span has a name, a start, an
// end, the span that caused it, and the id of the client operation it
// belongs to; a layer's self time is its span minus the part its children
// cover.
package spans

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"u1/internal/client"
	"u1/internal/protocol"
)

// ID names a recorded span; 0 is "no span" (a root's parent, or tracing off).
type ID int32

// Span is one timed call.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  ID     `json:"parent"`
	// Request is shared by every span of one client operation.
	Request uint64 `json:"request"`
}

// Recorder accumulates spans. A nil *Recorder records nothing, so callers
// trace unconditionally and pay one nil check when tracing is off.
type Recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

// NewRecorder creates a recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{origin: time.Now()}
}

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent ID, request uint64) ID {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, StartNs: now, Parent: parent, Request: request})
	id := ID(len(r.spans))
	r.mu.Unlock()
	return id
}

// End closes a span opened by Begin.
func (r *Recorder) End(id ID) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans; span i has ID i+1.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Append copies every span of other into r with prefix before its name,
// keeping parent links and shifting times onto r's clock. A nil r discards.
func (r *Recorder) Append(prefix string, other *Recorder) {
	if r == nil {
		return
	}
	all := other.Spans()
	shift := int64(other.origin.Sub(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	base := ID(len(r.spans))
	for _, s := range all {
		s.Name = prefix + s.Name
		s.StartNs += shift
		s.EndNs += shift
		if s.Parent != 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// SelfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (r *Recorder) SelfSeconds() map[string]float64 {
	all := r.Spans()
	children := make([]int64, len(all))
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent-1] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]float64)
	for i, s := range all {
		self[s.Name] += float64(s.EndNs-s.StartNs-children[i]) / 1e9
	}
	return self
}

// WriteJSON writes the spans to path as one JSON array.
func (r *Recorder) WriteJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.Spans()); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

// Transport wraps a client.Transport at the boundary every client request
// crosses. It always counts requests and non-OK answers — the load
// generator's own tally the server's counters must agree with — and, when
// Rec is set, records one span per Do under the span the load generator
// names in Parent. One Transport serves one connection and is driven by one
// goroutine.
type Transport struct {
	Inner client.Transport
	Rec   *Recorder
	// Parent and Request name the client-operation span in flight.
	Parent  ID
	Request uint64

	Requests uint64
	NotOK    uint64
}

var doNames = func() []string {
	ops := protocol.Ops()
	names := make([]string, len(ops))
	for _, op := range ops {
		names[op] = "do/" + op.String()
	}
	return names
}()

// DoName is the span name of one API request of the given kind, whatever
// depth of the stack serves it: Transport.Do at the client, the equivalent
// direct calls below it.
func DoName(op protocol.Op) string {
	if int(op) < len(doNames) {
		return doNames[op]
	}
	return "do/unknown"
}

// Do implements client.Transport.
func (t *Transport) Do(req *protocol.Request) (*protocol.Response, error) {
	t.Requests++
	id := t.Rec.Begin(DoName(req.Op), t.Parent, t.Request)
	resp, err := t.Inner.Do(req)
	t.Rec.End(id)
	if err != nil || resp.Status != protocol.StatusOK {
		t.NotOK++
	}
	return resp, err
}

// Pushes implements client.Transport.
func (t *Transport) Pushes() <-chan *protocol.Push { return t.Inner.Pushes() }

// Close implements client.Transport.
func (t *Transport) Close() error { return t.Inner.Close() }
