package client

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"u1/internal/protocol"
	"u1/internal/wire"
)

// echoServer accepts one connection and answers every request frame with an
// empty OK response carrying the matching correlation id.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			msgType, payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			if msgType != protocol.FrameRequest {
				return
			}
			req, err := protocol.UnmarshalRequest(payload)
			if err != nil {
				return
			}
			resp := &protocol.Response{ID: req.ID, Status: protocol.StatusOK}
			if err := wire.NewFrameWriter(conn).WriteMessage(protocol.FrameResponse, resp); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestTCPTransportRealizesRetryBackoff pins that Request.Delay — the client's
// accumulated retry backoff — becomes a real wall-clock wait on the TCP
// transport, and that first attempts (Delay == 0) skip the sleep entirely.
func TestTCPTransportRealizesRetryBackoff(t *testing.T) {
	tr, err := DialTCP(echoServer(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()

	var slept []time.Duration
	tr.sleep = func(d time.Duration) { slept = append(slept, d) }

	if _, err := tr.Do(&protocol.Request{Op: protocol.OpPing}); err != nil {
		t.Fatalf("first attempt: %v", err)
	}
	if len(slept) != 0 {
		t.Fatalf("Delay == 0 slept %v; first attempts must not wait", slept)
	}

	if _, err := tr.Do(&protocol.Request{Op: protocol.OpPing, Attempt: 1, Delay: 50 * time.Millisecond}); err != nil {
		t.Fatalf("retry attempt: %v", err)
	}
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("retry slept %v; want exactly one 50ms wait", slept)
	}
}

// scriptedPeer accepts one connection and hands it, with the first request
// decoded, to script; the connection closes when script returns.
func scriptedPeer(t *testing.T, script func(conn net.Conn, first *protocol.Request)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		req, err := protocol.UnmarshalRequest(payload)
		if err != nil {
			return
		}
		script(conn, req)
	}()
	return ln.Addr().String()
}

// TestTCPTransportReportsWhyItClosed pins one error for a dead transport,
// whichever way Do meets it: the call that was waiting when the read loop
// died and the call made afterwards both return ErrClosed carrying the cause
// the read loop recorded.
func TestTCPTransportReportsWhyItClosed(t *testing.T) {
	tr, err := DialTCP(scriptedPeer(t, func(conn net.Conn, _ *protocol.Request) {
		wire.WriteFrame(conn, 99, nil) //nolint:errcheck // a frame type no client expects
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, waiting := tr.Do(&protocol.Request{Op: protocol.OpPing})
	_, after := tr.Do(&protocol.Request{Op: protocol.OpPing})
	for when, err := range map[string]error{"while waiting": waiting, "afterwards": after} {
		if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "unexpected frame type 99") {
			t.Errorf("%s: err = %v, want ErrClosed with the read loop's cause", when, err)
		}
	}
	if waiting.Error() != after.Error() {
		t.Errorf("two reports of one death: %q and %q", waiting, after)
	}

	// A plain Close has no cause to add.
	tr, err = DialTCP(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := tr.Do(&protocol.Request{Op: protocol.OpPing}); err != ErrClosed {
		t.Errorf("after Close: err = %v, want ErrClosed itself", err)
	}
}

// TestTCPTransportSkipsAnswersNobodyWaitsFor sends an answer to a request
// that was never made ahead of the real one: the stray is dropped (back to
// the recycler) and the caller still gets its own.
func TestTCPTransportSkipsAnswersNobodyWaitsFor(t *testing.T) {
	tr, err := DialTCP(scriptedPeer(t, func(conn net.Conn, req *protocol.Request) {
		stray := &protocol.Response{ID: req.ID + 1000, Status: protocol.StatusNotFound, Generation: 7}
		wire.NewFrameWriter(conn).WriteMessage(protocol.FrameResponse, stray) //nolint:errcheck
		own := &protocol.Response{ID: req.ID, Status: protocol.StatusOK, Generation: 8}
		wire.NewFrameWriter(conn).WriteMessage(protocol.FrameResponse, own) //nolint:errcheck
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	resp, err := tr.Do(&protocol.Request{Op: protocol.OpPing})
	if err != nil || resp.Status != protocol.StatusOK || resp.Generation != 8 {
		t.Fatalf("answer = %+v, %v", resp, err)
	}
}

// TestTCPTransportReusesReplyChannels pins the reply channel's life: calls
// one after another share one channel, concurrent calls each hold their own
// and get their own answer, and no more channels exist afterwards than calls
// were ever in flight together.
func TestTCPTransportReusesReplyChannels(t *testing.T) {
	tr, err := DialTCP(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 5; i++ {
		if _, err := tr.Do(&protocol.Request{Op: protocol.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.idle) != 1 {
		t.Fatalf("%d reply channels after sequential calls, want 1", len(tr.idle))
	}

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				req := &protocol.Request{Op: protocol.OpPing}
				resp, err := tr.Do(req)
				if err != nil || resp.ID != req.ID {
					t.Errorf("request %d answered %+v, %v", req.ID, resp, err)
					return
				}
				protocol.ReleaseResponse(resp)
			}
		}()
	}
	wg.Wait()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.pending) != 0 || len(tr.idle) == 0 || len(tr.idle) > callers {
		t.Errorf("%d pending, %d idle reply channels after %d concurrent callers", len(tr.pending), len(tr.idle), callers)
	}
	for _, ch := range tr.idle {
		if len(ch) != 0 {
			t.Error("an idle reply channel still holds a response")
		}
	}
}
