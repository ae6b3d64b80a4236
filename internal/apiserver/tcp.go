package apiserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wire"
)

// Serve accepts client connections on ln until the listener closes and serves
// each with ServeConn on a goroutine of its own.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("apiserver: accept: %w", err)
		}
		go s.ServeConn(conn)
	}
}

// The slow-consumer rule: a connection whose mailbox holds pushMailboxCap
// unsent pushes, or whose frame write takes longer than writeTimeout, is
// closed; its client reconnects and catches up by generation (§3.4.2).
const (
	pushMailboxCap = 256
	writeTimeout   = 10 * time.Second
)

// connWriter serializes frame writes: responses and pushes share the
// connection. A push waits in the connection's mailbox for a goroutine that
// runs only while the mailbox is not empty, so Push never blocks the
// publisher. The first failed write, or a full mailbox, flips the dead flag
// and closes the connection: the read loop then ends the session, and
// dispatch, which probes the flag before the handler runs, drops in-flight
// requests for a client that is gone.
type connWriter struct {
	conn    net.Conn
	dropped *metrics.Counter // notify.dropped: pushes discarded unsent

	mu     sync.Mutex
	frames *wire.FrameWriter // guarded by mu

	boxMu    sync.Mutex
	mailbox  []*protocol.Push // guarded by boxMu
	draining bool             // guarded by boxMu

	dead atomic.Bool
}

func (w *connWriter) writeMessage(msgType byte, m wire.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(hostNow().Add(writeTimeout)) //nolint:errcheck // a failed set shows as a failed write
	err := w.frames.WriteMessage(msgType, m)
	if err != nil {
		w.kill()
	}
	return err
}

// kill marks the connection dead and closes it, once.
func (w *connWriter) kill() {
	if w.dead.CompareAndSwap(false, true) {
		w.conn.Close()
	}
}

// Push implements Pusher. A push to a dead connection, or one that finds
// the mailbox full, is discarded with every push the mailbox holds.
func (w *connWriter) Push(p *protocol.Push) {
	w.boxMu.Lock()
	defer w.boxMu.Unlock()
	if w.dead.Load() || len(w.mailbox) == pushMailboxCap {
		w.dropped.Add(uint64(len(w.mailbox)) + 1)
		w.mailbox = nil
		w.kill()
		return
	}
	w.mailbox = append(w.mailbox, p)
	if !w.draining {
		w.draining = true
		go w.drain()
	}
}

// drain writes the mailbox's pushes, oldest first, until it is empty.
func (w *connWriter) drain() {
	for {
		w.boxMu.Lock()
		batch := w.mailbox
		w.mailbox = nil
		w.draining = len(batch) > 0
		w.boxMu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, p := range batch {
			if w.writeMessage(protocol.FramePush, p) != nil {
				w.dropped.Inc()
			}
		}
	}
}

// aborted reports whether the connection is known dead.
func (w *connWriter) aborted() bool { return w.dead.Load() }

// hostNow stamps the requests and session closes of the real TCP transport:
// over sockets there is no virtual clock.
func hostNow() time.Time {
	//u1:allow wallclock real TCP transport stamps requests and session close with host time
	return time.Now()
}

// authReadTimeout bounds each read before a connection authenticates.
const authReadTimeout = 10 * time.Second

// ServeConn serves one client connection until it ends and then closes it.
// The connection carries one storage-protocol session: the first frame must
// be an Authenticate request; afterwards requests are served in order and
// pushes are interleaved onto the same connection, exactly the §3.3 model of
// one persistent TCP connection per desktop client. Until it authenticates, a
// peer can pin its read buffer and one pooled frame (ReadSmallFrame) for
// authReadTimeout at most. The gateway calls it on the connection's one
// goroutine.
func (s *Server) ServeConn(conn net.Conn) {
	w := &connWriter{conn: conn, dropped: s.pushDropped, frames: wire.NewFrameWriter(conn)}
	defer w.kill()

	var sess *Session
	defer func() {
		if sess != nil {
			s.CloseSession(sess, hostNow())
		}
	}()

	// Every frame of the connection decodes into this one request: requests
	// are served in order and no handler keeps c.Req (see OpContext). The
	// frame goes back the moment it is decoded; the request's Data comes out
	// of it in memory the blob store may adopt.
	req := new(protocol.Request)
	frames := wire.NewFrameReader(conn)
	for {
		read := frames.ReadFrame
		if sess == nil {
			conn.SetReadDeadline(hostNow().Add(authReadTimeout)) //nolint:errcheck // a failed set shows as a failed read
			read = frames.ReadSmallFrame
		}
		msgType, payload, err := read()
		if err != nil {
			return // io.EOF on clean shutdown; anything else drops the conn
		}
		if msgType != protocol.FrameRequest {
			return // protocol violation
		}
		err = req.Decode(payload)
		req.Data = wire.ReleaseFrame(payload, req.Data)
		if err != nil {
			return
		}
		now := hostNow()

		var resp *protocol.Response
		switch {
		case req.Op == protocol.OpAuthenticate:
			if sess != nil {
				// One storage-protocol session per connection: re-auth on a
				// live session is a protocol violation (mirrors the
				// opAuthenticate handler's rule), and silently replacing sess
				// here would leak the prior session forever.
				resp = fail(req.ID, protocol.ErrBadRequest)
				break
			}
			if sess, resp, _ = s.OpenSession(req.Token, w, now); sess != nil {
				conn.SetReadDeadline(time.Time{}) //nolint:errcheck // a failed set shows as a failed read
			}
			resp.ID = req.ID
		case req.Op == protocol.OpCloseSession:
			if sess != nil {
				s.CloseSession(sess, now)
				sess = nil
			}
			resp = okResponse()
			resp.ID = req.ID
		default:
			resp, _ = s.handle(sess, req, now, w.aborted)
		}
		err = w.writeMessage(protocol.FrameResponse, resp)
		// The frame is encoded and written (or lost with the connection):
		// the one place this loop gives its response back.
		protocol.ReleaseResponse(resp)
		if err != nil {
			return
		}
		if req.Op == protocol.OpCloseSession {
			return
		}
	}
}
