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
// Clock supplies the timestamp for every request.
//
// Placement follows the gateway rule of §4: every new session (Authenticate)
// asks the place function for a server — typically Cluster.LeastLoaded — and
// stays on it until the session ends. The transport is reusable across
// sessions, like a desktop client reconnecting after a drop.
//
// It stands in for the wire, and the wire is where a payload changes owner:
// Do copies req.Data on the way in and resp.Data on the way out, the one
// place the in-process path does, so that a caller shares no memory with the
// server or the object store on this transport any more than over TCP. The
// copy of a PutPart's Data is what the object store keeps, as it keeps a
// frame read off a socket.
// Metered traffic carries no Data and pays nothing. The request itself is
// only borrowed (the Transport.Do contract): the server reads it while
// Handle runs and keeps none of it. The response is the server's own, passed
// straight through: the server handed it over and so does Do.
type DirectTransport struct {
	place func() *apiserver.Server
	clock func() time.Time

	mu     sync.Mutex
	server *apiserver.Server
	sess   *apiserver.Session
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

// Push implements apiserver.Pusher: a publisher on any API server delivers
// into the transport's queue, which drops when the reader is not draining.
func (t *DirectTransport) Push(p *protocol.Push) {
	select {
	case t.queue() <- p:
	default:
	}
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
		newSess, resp, _ := server.OpenSession(req.Token, t, now)
		t.mu.Lock()
		t.server = server
		t.sess = newSess
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
		resp, _ := server.Handle(sess, req, now)
		if len(resp.Data) > 0 {
			resp.Data = bytes.Clone(resp.Data)
		}
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
