package apiserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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

// RunNotifier forwards broker events to local sessions until done closes.
// The TCP deployment runs one per server.
func (s *Server) RunNotifier(done <-chan struct{}) {
	for {
		select {
		case e := <-s.queue:
			s.deliver(e)
		case <-done:
			return
		}
	}
}

// connWriter serializes frame writes: responses and pushes share the
// connection. It also tracks connection death: the first failed write flips
// the dead flag, which dispatch probes before the handler runs, so in-flight
// requests for a disconnected client are dropped instead of doing back-end
// work nobody will read.
type connWriter struct {
	mu     sync.Mutex
	frames *wire.FrameWriter // guarded by mu
	dead   atomic.Bool
}

func (w *connWriter) writeMessage(msgType byte, m wire.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.frames.WriteMessage(msgType, m)
	if err != nil {
		w.dead.Store(true)
	}
	return err
}

// Push implements Pusher by writing a push frame. Write errors terminate the
// connection lazily: the read loop notices, and the dead flag aborts any
// request not yet at its handler.
func (w *connWriter) Push(p *protocol.Push) {
	_ = w.writeMessage(protocol.FramePush, p)
}

// aborted reports whether the connection is known dead.
func (w *connWriter) aborted() bool { return w.dead.Load() }

// hostNow stamps the requests and session closes of the real TCP transport:
// over sockets there is no virtual clock.
func hostNow() time.Time {
	//u1:allow wallclock real TCP transport stamps requests and session close with host time
	return time.Now()
}

// ServeConn serves one client connection until it ends and then closes it.
// The connection carries one storage-protocol session: the first frame must
// be an Authenticate request; afterwards requests are served in order and
// pushes are interleaved onto the same connection, exactly the §3.3 model of
// one persistent TCP connection per desktop client. The gateway calls it on
// the connection's one goroutine.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	w := &connWriter{frames: wire.NewFrameWriter(conn)}

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
	for {
		msgType, payload, err := wire.ReadFrame(conn)
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
			sess, resp, _ = s.OpenSession(req.Token, w, now)
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
