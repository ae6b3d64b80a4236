package client

import (
	"bytes"
	"sync"
	"time"

	"u1/internal/apiserver"
	"u1/internal/protocol"
)

// DirectTransport drives in-process API servers without sockets. The
// simulator uses it to run very large client populations on a virtual clock:
// Clock supplies the timestamp for every request, and the accumulated
// simulated service time is available through ServiceTime.
//
// Placement follows the gateway rule of §4: every new session (Authenticate)
// asks the place function for a server — typically Cluster.LeastLoaded — and
// stays on it until the session ends. The transport is reusable across
// sessions, like a desktop client reconnecting after a drop.
//
// It stands in for the wire, and the wire is where a payload changes owner:
// Do copies req.Data on the way in and resp.Data on the way out, the one
// place the in-process path does, so that a caller shares no memory with the
// server or the object store on this transport any more than over TCP.
// Metered traffic carries no Data and pays nothing. The request itself is
// only borrowed (the Transport.Do contract): the server reads it while
// Handle runs and keeps none of it. The response is the server's own, passed
// straight through: the server handed it over and so does Do.
type DirectTransport struct {
	place func() *apiserver.Server
	clock func() time.Time

	mu      sync.Mutex
	server  *apiserver.Server
	sess    *apiserver.Session
	service time.Duration
	// pushes materializes on the first delivered push or the first Pushes
	// call, whichever comes first (see queue): the simulator builds one
	// transport per connection and almost none of them ever sees a push.
	pushes chan *protocol.Push
}

// pushQueueDepth bounds the pushes buffered for a reader that lags; past it
// pushes are dropped, as on a TCP connection whose client does not drain.
const pushQueueDepth = 256

// queue returns the push channel, creating it on first use.
func (t *DirectTransport) queue() chan *protocol.Push {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pushes == nil {
		t.pushes = make(chan *protocol.Push, pushQueueDepth)
	}
	return t.pushes
}

// Push implements apiserver.Pusher: the session's server-side end delivers
// into the transport's queue, dropping when the reader is not draining.
func (t *DirectTransport) Push(p *protocol.Push) {
	select {
	case t.queue() <- p:
	default:
	}
}

// FixedServer returns a placement function pinning every session to srv.
func FixedServer(srv *apiserver.Server) func() *apiserver.Server {
	return func() *apiserver.Server { return srv }
}

// NewDirectTransport creates a transport. place chooses the API server for
// each new session; clock provides request timestamps (nil → time.Now).
func NewDirectTransport(place func() *apiserver.Server, clock func() time.Time) *DirectTransport {
	if clock == nil {
		clock = time.Now
	}
	return &DirectTransport{place: place, clock: clock}
}

// Do implements Transport.
func (t *DirectTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	now := t.clock()
	switch req.Op {
	case protocol.OpAuthenticate:
		// A reconnect implicitly drops the previous connection: close any
		// session still attached to this transport before placing the new
		// one, or it would linger server-side until the weekly sweep.
		t.mu.Lock()
		oldSess, oldServer := t.sess, t.server
		t.sess = nil
		t.mu.Unlock()
		if oldSess != nil && oldServer != nil {
			oldServer.CloseSession(oldSess, now)
		}
		server := t.place()
		newSess, resp, d := server.OpenSession(req.Token, t, now)
		t.mu.Lock()
		t.server = server
		t.sess = newSess
		t.service += d
		t.mu.Unlock()
		resp.ID = req.ID
		return resp, nil

	case protocol.OpCloseSession:
		t.mu.Lock()
		sess, server := t.sess, t.server
		t.sess = nil
		t.mu.Unlock()
		if sess != nil && server != nil {
			server.CloseSession(sess, now)
		}
		return answer(req.ID, protocol.StatusOK), nil

	default:
		t.mu.Lock()
		sess, server := t.sess, t.server
		t.mu.Unlock()
		if server == nil {
			return answer(req.ID, protocol.StatusAuthFailed), nil
		}
		// Retry backoff in virtual time: the client cannot sleep inside a
		// simulator event, so a retried request instead arrives Delay after
		// the event's clock — late enough for the deterministic fault plan
		// to draw a fresh decision.
		if req.Delay > 0 {
			now = now.Add(req.Delay)
		}
		if len(req.Data) > 0 {
			sent := *req
			sent.Data = bytes.Clone(req.Data)
			req = &sent
		}
		resp, d := server.Handle(sess, req, now)
		if len(resp.Data) > 0 {
			resp.Data = bytes.Clone(resp.Data)
		}
		t.mu.Lock()
		t.service += d
		t.mu.Unlock()
		return resp, nil
	}
}

// answer acquires the bare response the transport gives in the server's
// stead.
func answer(id uint64, st protocol.Status) *protocol.Response {
	resp := protocol.AcquireResponse()
	resp.ID, resp.Status = id, st
	return resp
}

// Pushes implements Transport.
func (t *DirectTransport) Pushes() <-chan *protocol.Push { return t.queue() }

// Close implements Transport: it ends the current session (a TCP disconnect)
// but the transport stays reusable — the next Authenticate starts a fresh
// session, possibly on another server.
func (t *DirectTransport) Close() error {
	t.mu.Lock()
	sess, server := t.sess, t.server
	t.sess = nil
	t.mu.Unlock()
	if sess != nil && server != nil {
		server.CloseSession(sess, t.clock())
	}
	return nil
}

// ServiceTime returns the cumulative simulated back-end service time
// consumed through this transport.
func (t *DirectTransport) ServiceTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.service
}

// Session returns the live session, if any (diagnostics and tests).
func (t *DirectTransport) Session() *apiserver.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sess
}
