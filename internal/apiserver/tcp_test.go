package apiserver

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wire"
)

// connUser owns connEnv's token, volume and file.
const connUser protocol.UserID = 1

// connEnv is a TCP-mode server (inline data) with a token issued to connUser
// and an empty file in their root volume to upload into. A fresh store
// numbers volumes, nodes and uploads the same way every time, so a byte
// stream built against one env addresses the same objects in the next.
type connEnv struct {
	*stageEnv
	token string
	root  protocol.VolumeID
	file  protocol.NodeID
}

func newConnEnv(t testing.TB) *connEnv {
	t.Helper()
	e := &connEnv{stageEnv: newStageEnv(metadata.Config{Shards: 4}, Config{InlineData: true}, Deps{})}
	var err error
	if e.token, err = e.auth.Issue(connUser); err != nil {
		t.Fatal(err)
	}
	root, err := e.store.CreateUser(connUser)
	if err != nil {
		t.Fatal(err)
	}
	file, err := e.store.MakeFile(connUser, root.ID, 0, "upload.bin")
	if err != nil {
		t.Fatal(err)
	}
	e.root, e.file = root.ID, file.ID
	return e
}

// requestIDs returns, in order, the IDs of the request frames handleConn
// serves from stream: every frame up to the first that is not a decodable
// request, and none past a CloseSession.
func requestIDs(stream []byte) []uint64 {
	r := bytes.NewReader(stream)
	var ids []uint64
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil || typ != protocol.FrameRequest {
			return ids
		}
		var req protocol.Request
		if req.Decode(payload) != nil {
			return ids
		}
		ids = append(ids, req.ID)
		if req.Op == protocol.OpCloseSession {
			return ids
		}
	}
}

// FuzzHandleConn feeds byte streams to the TCP connection loop over a
// net.Pipe. Streams carry a placeholder where a token goes, replaced with the
// token the env issued, so a seed's Authenticate stays valid in every run.
// Whatever the bytes: no panic; the loop returns within 5 s of the client end
// closing; the response IDs, in order, are a prefix of the IDs of the request
// frames that decode; and once it returns no session is left open, on the
// server or in api.sessions.active.
func FuzzHandleConn(f *testing.F) {
	e := newConnEnv(f)
	placeholder := []byte(strings.Repeat("T", len(e.token)))
	frames := func(reqs ...protocol.Request) []byte {
		var out bytes.Buffer
		for i := range reqs {
			reqs[i].ID = uint64(i + 1)
			if err := wire.WriteFrame(&out, protocol.FrameRequest, reqs[i].Marshal()); err != nil {
				f.Fatal(err)
			}
		}
		return out.Bytes()
	}
	login := protocol.Request{Op: protocol.OpAuthenticate, Token: string(placeholder)}
	h1, h2 := protocol.HashBytes([]byte("two parts")), protocol.HashBytes([]byte("dropped"))
	session := []protocol.Request{
		login,
		{Op: protocol.OpListVolumes},
		// Upload 1 takes two metered parts.
		{Op: protocol.OpPutContent, Volume: e.root, Node: e.file, Name: "upload.bin", Hash: h1, Size: blob.PartSize + 10},
		{Op: protocol.OpPutPart, Upload: 1, Part: 0, Size: blob.PartSize},
		{Op: protocol.OpPutPart, Upload: 1, Part: 1, Size: 10, Final: true},
		login,
		// Upload 2 is dropped by its oversized part; the next part finds nothing.
		{Op: protocol.OpPutContent, Volume: e.root, Node: e.file, Name: "upload.bin", Hash: h2, Size: 10},
		{Op: protocol.OpPutPart, Upload: 2, Size: 20, Final: true},
		{Op: protocol.OpPutPart, Upload: 2, Size: 10, Final: true},
		{Op: protocol.OpCloseSession},
	}
	f.Add(frames(session...))
	f.Add(frames(session[:len(session)-1]...))                                  // the client just hangs up
	f.Add(append(frames(session[:3]...), 0, 0, 0, 9, protocol.FrameRequest, 1)) // a truncated frame
	f.Add(frames(protocol.Request{Op: protocol.OpListVolumes}, login))          // no session yet

	f.Fuzz(func(t *testing.T, stream []byte) {
		e := newConnEnv(t)
		stream = bytes.ReplaceAll(stream, placeholder, []byte(e.token))
		want := requestIDs(stream)
		active := e.reg.Gauge(metrics.APISessionsActive).Value()

		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			e.srv.handleConn(server)
			close(done)
		}()
		answered := make(chan struct{})
		got := make(chan []uint64, 1)
		go func() {
			var ids []uint64
			if len(want) == 0 {
				close(answered)
			}
			for {
				typ, payload, err := wire.ReadFrame(client)
				if err != nil {
					got <- ids
					return
				}
				if typ != protocol.FrameResponse {
					continue
				}
				var resp protocol.Response
				if err := resp.Decode(payload); err != nil {
					t.Errorf("undecodable response frame: %v", err)
				}
				if ids = append(ids, resp.ID); len(ids) == len(want) {
					close(answered)
				}
			}
		}()
		client.Write(stream) //nolint:errcheck // the server may hang up first
		select {
		case <-done:
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Errorf("no answer to every request frame within 5 s")
		}
		client.Close()
		ids := <-got // the reader stops once the client end is closed
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("handleConn still running 5 s after the client closed")
		}

		if len(ids) > len(want) {
			t.Fatalf("%d responses to %d request frames", len(ids), len(want))
		}
		for i, id := range ids {
			if id != want[i] {
				t.Fatalf("response %d has ID %d, want %d (request IDs %v)", i, id, want[i], want)
			}
		}
		if n := e.srv.SessionCount(); n != 0 {
			t.Errorf("%d sessions left open", n)
		}
		if n := e.reg.Gauge(metrics.APISessionsActive).Value(); n != active {
			t.Errorf("api.sessions.active = %d, want %d", n, active)
		}
	})
}
