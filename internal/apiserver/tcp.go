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

// Serve accepts client connections on ln until the listener closes. Each
// connection carries one storage-protocol session: the first frame must be an
// Authenticate request; afterwards requests are served in order and pushes
// are interleaved onto the same connection, exactly the §3.3 model of one
// persistent TCP connection per desktop client.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("apiserver: accept: %w", err)
		}
		go s.handleConn(conn)
	}
}

// RunNotifier forwards broker events to local sessions until done closes.
// The TCP deployment runs one per server.
func (s *Server) RunNotifier(done <-chan struct{}) {
	for {
		select {
		case e, ok := <-s.queue:
			if !ok {
				return
			}
			s.deliver(e)
		case <-done:
			return
		}
	}
}

// connWriter serializes frame writes: responses and pushes share the
// connection. It also tracks connection death: the first failed write flips
// the dead flag, which the dispatch pipeline probes (OpContext.Aborted) so
// in-flight requests for a disconnected client are dropped mid-pipeline
// instead of doing back-end work nobody will read.
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
// request still in the pipeline.
func (w *connWriter) Push(p *protocol.Push) {
	_ = w.writeMessage(protocol.FramePush, p)
}

// aborted reports whether the connection is known dead.
func (w *connWriter) aborted() bool { return w.dead.Load() }

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	w := &connWriter{frames: wire.NewFrameWriter(conn)}

	var sess *Session
	defer func() {
		if sess != nil {
			//u1:allow wallclock real TCP transport stamps session close with host time
			s.CloseSession(sess, time.Now())
		}
	}()

	// Every frame of the connection decodes into this one request: requests
	// are served in order and no handler keeps c.Req (see OpContext).
	req := new(protocol.Request)
	for {
		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return // io.EOF on clean shutdown; anything else drops the conn
		}
		if msgType != protocol.FrameRequest {
			return // protocol violation
		}
		if err := req.Decode(payload); err != nil {
			return
		}
		//u1:allow wallclock real TCP transport stamps requests with host time
		now := time.Now()

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
			resp, _ = s.HandleWithCancel(sess, req, now, time.Time{}, w.aborted)
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

// ListenAndServe listens on addr and serves until the process ends. It
// reports the bound address through the optional ready channel, which helps
// tests bind port 0.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("apiserver: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ln)
}
