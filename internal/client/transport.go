// Package client implements the U1 desktop client of §3.3: the sync engine
// that mirrors volumes, offers SHA-1 hashes for cross-user deduplication
// before uploading, compresses uploads, reacts to server push notifications,
// and — faithfully to the original — implements none of delta updates, file
// bundling or sync deferment, the three absences the paper blames for excess
// traffic.
//
// The engine is transport-agnostic: over TCP it speaks the wire protocol
// against a real API server; in-process it drives an apiserver directly with
// virtual timestamps, which is how the trace simulator runs a million
// clients.
package client

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

// Transport moves requests to an API server and delivers pushes back.
type Transport interface {
	// Do performs one request/response exchange.
	//
	// The request is borrowed until Do returns: an implementation may read
	// and stamp it (a correlation id, say) while the call lasts, and must not
	// retain it or its Data afterwards — the Client wipes and reuses the
	// request the moment Do returns, and callers reuse the Data buffer.
	//
	// The response is handed over: the transport keeps no reference to it,
	// its Data aliases nothing the server or the transport still uses, and
	// the caller may release it once (protocol.ReleaseResponse). The Client
	// reads it in place and releases it before the call that asked for it
	// returns, so a transport that kept the pointer would find it wiped or
	// answering someone else, and the bytes of its listing back in wire's
	// frame pool. A transport takes its responses from
	// protocol.AcquireResponse to have them recycled; any other response is
	// simply left to the collector.
	Do(*protocol.Request) (*protocol.Response, error)
	// Pushes returns the channel of unsolicited server notifications.
	Pushes() <-chan *protocol.Push
	// Close tears the transport down.
	Close() error
}

// ErrClosed is returned by Do after the transport closed.
var ErrClosed = errors.New("client: transport closed")

// TCPTransport multiplexes requests over one TCP connection: responses are
// matched to requests by correlation id, pushes are surfaced on their own
// channel. Safe for concurrent Do calls (pipelining).
type TCPTransport struct {
	conn net.Conn

	writeMu sync.Mutex
	frames  *wire.FrameWriter // guarded by writeMu

	mu      sync.Mutex
	pending map[uint64]chan *protocol.Response
	// idle holds reply channels whose one response was received, or that
	// never were exposed to the read loop's send: open and empty, ready for
	// the next request. A channel fail closed never comes back here.
	idle []chan *protocol.Response
	err  error

	nextID uint64
	pushes chan *protocol.Push
	done   chan struct{}

	// sleep realizes Request.Delay — the client's accumulated retry backoff —
	// as real wall-clock waiting before the request goes on the wire.
	// Injectable so tests observe the backoff without actually sleeping;
	// DialTCP wires time.Sleep.
	sleep func(time.Duration)
}

// DialTCP connects to an API server (or the gateway in front of it).
func DialTCP(addr string) (*TCPTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	t := &TCPTransport{
		conn:    conn,
		frames:  wire.NewFrameWriter(conn),
		pending: make(map[uint64]chan *protocol.Response),
		pushes:  make(chan *protocol.Push, 64),
		done:    make(chan struct{}),
		sleep:   time.Sleep,
	}
	go t.readLoop()
	return t, nil
}

func (t *TCPTransport) readLoop() {
	frames := wire.NewFrameReader(t.conn)
	for {
		msgType, payload, err := frames.ReadFrame()
		if err != nil {
			t.fail(err)
			return
		}
		// Each frame goes back the moment it is decoded, but a listing's:
		// a response whose Deltas are read in place keeps its frame until
		// it is released. A response's Data comes out of the frame in
		// memory the caller may keep.
		switch msgType {
		case protocol.FrameResponse:
			resp := protocol.AcquireResponse()
			err := resp.Decode(payload)
			resp.KeepFrame(payload)
			if err != nil {
				protocol.ReleaseResponse(resp)
				t.fail(err)
				return
			}
			t.mu.Lock()
			ch, ok := t.pending[resp.ID]
			delete(t.pending, resp.ID)
			t.mu.Unlock()
			if ok {
				ch <- resp
			} else {
				protocol.ReleaseResponse(resp) // nobody waits for this id
			}
		case protocol.FramePush:
			push, err := protocol.UnmarshalPush(payload)
			wire.ReleaseFrame(payload, nil)
			if err != nil {
				t.fail(err)
				return
			}
			select {
			case t.pushes <- push:
			default: // client not draining pushes; drop rather than stall
			}
		default:
			t.fail(fmt.Errorf("client: unexpected frame type %d", msgType))
			return
		}
	}
}

func (t *TCPTransport) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = err
	for id, ch := range t.pending {
		close(ch)
		delete(t.pending, id)
	}
	close(t.done)
}

// Do implements Transport.
func (t *TCPTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	// Retry backoff is real time on a real connection: wait it out before
	// the request goes on the wire. First attempts (Delay == 0) never sleep.
	if req.Delay > 0 && t.sleep != nil {
		t.sleep(req.Delay)
	}
	req.ID = atomic.AddUint64(&t.nextID, 1)

	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return nil, t.closedErr()
	}
	var ch chan *protocol.Response
	if n := len(t.idle); n > 0 {
		ch, t.idle = t.idle[n-1], t.idle[:n-1]
	} else {
		ch = make(chan *protocol.Response, 1)
	}
	t.pending[req.ID] = ch
	t.mu.Unlock()

	t.writeMu.Lock()
	err := t.frames.WriteMessage(protocol.FrameRequest, req)
	t.writeMu.Unlock()
	if err != nil {
		t.mu.Lock()
		if _, waiting := t.pending[req.ID]; waiting {
			// Still ours alone: neither the read loop nor fail took it.
			delete(t.pending, req.ID)
			t.idle = append(t.idle, ch)
		}
		t.mu.Unlock()
		return nil, fmt.Errorf("client: sending request: %w", err)
	}

	resp, ok := <-ch
	if !ok {
		return nil, t.closedErr()
	}
	t.mu.Lock()
	t.idle = append(t.idle, ch)
	t.mu.Unlock()
	return resp, nil
}

// closedErr reports a dead transport as ErrClosed carrying the cause fail
// recorded (a plain Close has none to add).
func (t *TCPTransport) closedErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if errors.Is(t.err, ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("%w: %v", ErrClosed, t.err)
}

// Pushes implements Transport.
func (t *TCPTransport) Pushes() <-chan *protocol.Push { return t.pushes }

// Close implements Transport. The cause is recorded before the connection
// goes, so the read loop's "use of closed connection" never stands in for it.
func (t *TCPTransport) Close() error {
	t.fail(ErrClosed)
	return t.conn.Close()
}
