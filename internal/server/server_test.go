package server

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/client"
	"u1/internal/metadata"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
	"u1/internal/wire"
)

// newTCPCluster boots a 3-machine cluster on loopback sockets.
func newTCPCluster(t *testing.T) (*TCPCluster, *Cluster) {
	t.Helper()
	c := NewCluster(Config{
		Config:          metadata.Config{Shards: 4},
		Machines:        []string{"alpha", "beta", "gamma"},
		ProcsPerMachine: 4,
		InlineData:      true,
		Seed:            7,
	})
	tc, err := c.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	return tc, c
}

func dialClient(t *testing.T, tc *TCPCluster, user protocol.UserID) *client.Client {
	t.Helper()
	token, err := tc.Auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := client.DialTCP(tc.GateAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(tr)
	if err := cl.Connect(token); err != nil {
		t.Fatalf("connect user %v: %v", user, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestTCPEndToEndUploadDownload(t *testing.T) {
	tc, _ := newTCPCluster(t)
	cl := dialClient(t, tc, 1)

	root, ok := cl.RootVolume()
	if !ok {
		t.Fatal("no root volume")
	}
	dir, err := cl.Mkdir(root, 0, "docs")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("u1 measurement study "), 1000)
	node, reused, err := cl.Upload(root, dir.ID, "paper.txt", content)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first upload cannot be a dedup hit")
	}
	got, err := cl.Download(root, node.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("downloaded %d bytes, want %d", len(got), len(content))
	}
	st := cl.Stats()
	if st.Uploads != 1 || st.Downloads != 1 || st.BytesUp != uint64(len(content)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestTCPMultipartLargeFile(t *testing.T) {
	tc, c := newTCPCluster(t)
	cl := dialClient(t, tc, 2)
	root, _ := cl.RootVolume()

	// 12 MB crosses the 5 MB part size: full uploadjob + multipart path.
	big := bytes.Repeat([]byte{0xA5, 0x5A, 1, 2}, 3<<20)
	node, reused, err := cl.Upload(root, 0, "big.iso", big)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("unexpected dedup hit")
	}
	got, err := cl.Download(root, node.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Errorf("multipart round trip corrupted: %d vs %d bytes", len(got), len(big))
	}
	bs := c.Blob.Stats()
	if bs.MultipartCompleted != 1 || bs.PartsUploaded != 3 {
		t.Errorf("blob stats = %+v", bs)
	}
}

func TestTCPCrossUserDedup(t *testing.T) {
	tc, c := newTCPCluster(t)
	a := dialClient(t, tc, 10)
	b := dialClient(t, tc, 11)

	content := bytes.Repeat([]byte("very popular song"), 4096)
	rootA, _ := a.RootVolume()
	if _, reused, err := a.Upload(rootA, 0, "song.mp3", content); err != nil || reused {
		t.Fatalf("first upload: reused=%v err=%v", reused, err)
	}
	rootB, _ := b.RootVolume()
	_, reused, err := b.Upload(rootB, 0, "copy.mp3", content)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("second user's identical upload must be deduplicated")
	}
	if got := b.Stats().DedupHits; got != 1 {
		t.Errorf("dedup hits = %d", got)
	}
	cs := c.Store.Contents()
	if cs.UniqueContents != 1 || cs.DedupRatio() != 0.5 {
		t.Errorf("content stats = %+v ratio=%v", cs, cs.DedupRatio())
	}
}

func TestTCPTwoDevicesPushSync(t *testing.T) {
	tc, _ := newTCPCluster(t)
	// Two desktop clients of the same user — e.g. home and office machines.
	dev1 := dialClient(t, tc, 20)
	dev2 := dialClient(t, tc, 20)
	dev2.AutoFetch = true

	root, _ := dev1.RootVolume()
	content := []byte("note to self, synced across devices")
	node, _, err := dev1.Upload(root, 0, "note.txt", content)
	if err != nil {
		t.Fatal(err)
	}

	// dev2 must receive the push and converge after handling it.
	select {
	case p := <-dev2.Pushes():
		if p.Event != protocol.PushVolumeChanged || p.Volume != root {
			t.Fatalf("push = %+v", p)
		}
		if _, err := dev2.HandlePush(p); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no push within 5s")
	}
	m, ok := dev2.Mirror(root)
	if !ok {
		t.Fatal("no mirror")
	}
	if n, ok := m.Nodes[node.ID]; !ok || n.Size != uint64(len(content)) {
		t.Errorf("dev2 mirror missing the uploaded file: %+v", m.Nodes)
	}
	if dev2.Stats().BytesDown != uint64(len(content)) {
		t.Errorf("dev2 should have auto-fetched the content: %+v", dev2.Stats())
	}
}

func TestTCPSharingFlow(t *testing.T) {
	tc, _ := newTCPCluster(t)
	owner := dialClient(t, tc, 30)
	guest := dialClient(t, tc, 31)

	udf, err := owner.CreateUDF("~/Project")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Upload(udf.ID, 0, "spec.doc", []byte("spec v1")); err != nil {
		t.Fatal(err)
	}
	share, err := owner.CreateShare(udf.ID, 31, "project", false)
	if err != nil {
		t.Fatal(err)
	}

	// The guest gets the share offer pushed, accepts, syncs, reads.
	select {
	case p := <-guest.Pushes():
		if p.Event != protocol.PushShareOffered {
			t.Fatalf("push = %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no share push within 5s")
	}
	if _, err := guest.AcceptShare(share.ID); err != nil {
		t.Fatal(err)
	}
	changed, err := guest.Sync(udf.ID)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := guest.Mirror(udf.ID)
	if len(changed) != 1 || m.Nodes[changed[0]].Name != "spec.doc" {
		t.Errorf("changed = %+v", changed)
	}
	data, err := guest.Download(udf.ID, changed[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "spec v1" {
		t.Errorf("guest read %q", data)
	}
}

func TestTCPAuthRejected(t *testing.T) {
	tc, _ := newTCPCluster(t)
	tr, err := client.DialTCP(tc.GateAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cl := client.New(tr)
	if err := cl.Connect("not-a-token"); err == nil {
		t.Fatal("bogus token must be rejected")
	}
}

// TestTCPReauthRejected pins the one-session-per-connection rule on the wire
// path: a second Authenticate frame on a live connection is a protocol
// violation, not a silent session replacement (which would leak the first
// session until the weekly sweep).
func TestTCPReauthRejected(t *testing.T) {
	tc, c := newTCPCluster(t)
	token, err := tc.Auth.Issue(42)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := client.DialTCP(tc.GateAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cl := client.New(tr)
	if err := cl.Connect(token); err != nil {
		t.Fatal(err)
	}
	if err := cl.Connect(token); err == nil {
		t.Fatal("re-auth on a live connection must be rejected")
	}
	var sessions int
	for _, s := range c.Servers {
		sessions += s.SessionCount()
	}
	if sessions != 1 {
		t.Errorf("sessions after rejected re-auth = %d, want 1", sessions)
	}
}

// TestDirectReconnectClosesPreviousSession pins the direct transport's
// reconnect semantics: authenticating again on the same transport models a
// dropped-and-redialed desktop client, so the previous session must be
// closed server-side, not leaked.
func TestDirectReconnectClosesPreviousSession(t *testing.T) {
	c := NewCluster(Config{Config: metadata.Config{Shards: 2}, Machines: []string{"solo"}, Seed: 5})
	token, err := c.Auth.Issue(7)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(client.NewDirectTransport(c.LeastLoaded, nil))
	if err := cl.Connect(token); err != nil {
		t.Fatal(err)
	}
	if err := cl.Connect(token); err != nil {
		t.Fatalf("reconnect without disconnect: %v", err)
	}
	if n := c.Servers[0].SessionCount(); n != 1 {
		t.Errorf("sessions after reconnect = %d, want 1 (previous session leaked)", n)
	}
	cl.Close()
	if n := c.Servers[0].SessionCount(); n != 0 {
		t.Errorf("sessions after close = %d, want 0", n)
	}
}

// TestTCPTrickledFrames: a client that writes its Authenticate and
// ListVolumes frames one byte at a time, pausing between bytes, gets the
// answers a client writing each frame at once gets, and its session is gone
// once it hangs up.
func TestTCPTrickledFrames(t *testing.T) {
	tc, c := newTCPCluster(t)
	token, err := tc.Auth.Issue(77)
	if err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	fw := wire.NewFrameWriter(&frames)
	for i, req := range []protocol.Request{
		{ID: 1, Op: protocol.OpAuthenticate, Token: token},
		{ID: 2, Op: protocol.OpListVolumes},
	} {
		if err := fw.WriteMessage(protocol.FrameRequest, &req); err != nil {
			t.Fatalf("encoding request %d: %v", i, err)
		}
	}
	// exchange sends frames through the gateway in writes of chunk bytes
	// and returns the two answers, the session ID zeroed: it is the one
	// field two sessions must not share.
	exchange := func(chunk int, pause time.Duration) []protocol.Response {
		t.Helper()
		conn, err := net.Dial("tcp", tc.GateAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for b := frames.Bytes(); len(b) > 0; b = b[min(chunk, len(b)):] {
			if _, err := conn.Write(b[:min(chunk, len(b))]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(pause)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		var out []protocol.Response
		for len(out) < 2 {
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatalf("reading answer %d: %v", len(out)+1, err)
			}
			if typ != protocol.FrameResponse {
				continue // a push
			}
			var resp protocol.Response
			if err := resp.Decode(payload); err != nil {
				t.Fatal(err)
			}
			resp.Session = 0
			out = append(out, resp)
		}
		return out
	}
	want := exchange(frames.Len(), 0)
	if want[0].Status != protocol.StatusOK || want[1].Status != protocol.StatusOK || len(want[1].Volumes) == 0 {
		t.Fatalf("a whole-frame client got %+v", want)
	}
	if got := exchange(1, time.Millisecond); !reflect.DeepEqual(got, want) {
		t.Errorf("trickled answers differ from whole-frame ones:\n  got  %+v\n  want %+v", got, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sessions int
		for _, s := range c.Servers {
			sessions += s.SessionCount()
		}
		if sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still open after both clients hung up", sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPSessionsSpreadAcrossServers(t *testing.T) {
	tc, c := newTCPCluster(t)
	for u := protocol.UserID(100); u < 106; u++ {
		dialClient(t, tc, u)
	}
	var with int
	for _, s := range c.Servers {
		if s.SessionCount() > 0 {
			with++
		}
	}
	if with < 2 {
		t.Errorf("sessions landed on %d servers; gateway should spread them", with)
	}
}

// TestTCPGoroutinesPerConnection opens 64 authenticated, idle raw
// connections through the gateway and counts the goroutines they cost the
// process: one each, on which the gateway places the connection and its API
// server serves it, plus a small constant. A gateway that relays bytes to a
// server over a second socket costs about four.
func TestTCPGoroutinesPerConnection(t *testing.T) {
	const conns, slack = 64, 8
	tc, _ := newTCPCluster(t)
	token, err := tc.Auth.Issue(90)
	if err != nil {
		t.Fatal(err)
	}
	login := (&protocol.Request{ID: 1, Op: protocol.OpAuthenticate, Token: token}).Marshal()
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", tc.GateAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := wire.WriteFrame(conn, protocol.FrameRequest, login); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("connection %d: reading the login answer: %v", i, err)
		}
		var resp protocol.Response
		if err := resp.Decode(payload); err != nil || typ != protocol.FrameResponse || resp.Status != protocol.StatusOK {
			t.Fatalf("connection %d: login answered %d %+v (%v)", i, typ, resp, err)
		}
	}
	if delta := runtime.NumGoroutine() - before; delta > conns+slack {
		t.Errorf("%d idle connections cost %d goroutines, want at most %d", conns, delta, conns+slack)
	}
}

// TestTCPCloseWithLiveSessions closes the cluster, twice, while placed
// sessions are busy: their connections keep being served, a new dial is
// refused, and once the clients hang up the goroutine count is back to what
// it was before the cluster listened. Run it under -race.
func TestTCPCloseWithLiveSessions(t *testing.T) {
	const users, ops = 4, 25
	c := NewCluster(Config{
		Config:          metadata.Config{Shards: 4},
		Machines:        []string{"alpha", "beta"},
		ProcsPerMachine: 2,
		Seed:            7,
	})
	before := runtime.NumGoroutine()
	tc, err := c.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	clients := make([]*client.Client, users)
	for i := range clients {
		token, err := tc.Auth.Issue(protocol.UserID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := client.DialTCP(tc.GateAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client.New(tr)
		if err := clients[i].Connect(token); err != nil {
			t.Fatalf("connect user %d: %v", i+1, err)
		}
	}
	// Each client keeps making directories through both Closes and makes
	// ops more once they returned.
	started, closed := make(chan struct{}, users), make(chan struct{})
	errs := make(chan error, users)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root, _ := cl.RootVolume()
			for n, after := 0, 0; after <= ops; n++ {
				select {
				case <-closed:
					after++
				default:
				}
				_, err := cl.Mkdir(root, 0, fmt.Sprintf("d%d", n))
				if n == 0 {
					started <- struct{}{}
				}
				if err != nil {
					errs <- fmt.Errorf("user %d, op %d: %w", i+1, n, err)
					return
				}
			}
		}()
	}
	for range clients {
		<-started
	}
	tc.Close()
	tc.Close()
	close(closed)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("a placed session was cut off by Close: %v", err)
	}
	if conn, err := net.Dial("tcp", tc.GateAddr.String()); err == nil {
		conn.Close()
		t.Error("a dial after Close was accepted")
	}
	for _, cl := range clients {
		cl.Close() //nolint:errcheck
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every client hung up, %d before the cluster listened",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- In-process (simulation-mode) cluster tests ---

func newDirectCluster(t *testing.T) *Cluster {
	t.Helper()
	return NewCluster(Config{
		Config:          metadata.Config{Shards: 4},
		Machines:        []string{"m1", "m2"},
		ProcsPerMachine: 2,
		Seed:            13,
	})
}

func directClient(t *testing.T, c *Cluster, user protocol.UserID, clock func() time.Time) *client.Client {
	t.Helper()
	token, err := c.Auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	tr := client.NewDirectTransport(c.LeastLoaded, clock)
	cl := client.New(tr)
	if err := cl.Connect(token); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestDirectMeteredUpload(t *testing.T) {
	c := newDirectCluster(t)
	now := time.Unix(1390000000, 0)
	clock := func() time.Time { return now }
	cl := directClient(t, c, 1, clock)
	root, _ := cl.RootVolume()

	// Metered upload: 12 MB by size only, no bytes materialized anywhere.
	h := protocol.HashBytes([]byte("metered-content-1"))
	node, reused, err := cl.UploadSized(root, 0, "video.avi", h, 12<<20, 11<<20)
	if err != nil || reused {
		t.Fatalf("upload: reused=%v err=%v", reused, err)
	}
	if node.Size != 12<<20 {
		t.Errorf("node size = %d", node.Size)
	}
	bs := c.Blob.Stats()
	if bs.BytesHeld != 12<<20 || bs.MultipartCompleted != 1 {
		t.Errorf("blob stats = %+v", bs)
	}
	// Metered download accounts bytes without materializing.
	if _, err := cl.Download(root, node.ID); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().BytesDown; got != 12<<20 {
		t.Errorf("bytes down = %d", got)
	}
}

func TestDirectNotificationsViaPump(t *testing.T) {
	c := newDirectCluster(t)
	now := time.Unix(1390000000, 0)
	clock := func() time.Time { return now }

	// Force the two devices onto different servers so the broker path runs.
	token, _ := c.Auth.Issue(5)
	tr1 := client.NewDirectTransport(func() *apiserver.Server { return c.Servers[0] }, clock)
	dev1 := client.New(tr1)
	if err := dev1.Connect(token); err != nil {
		t.Fatal(err)
	}
	tr2 := client.NewDirectTransport(func() *apiserver.Server { return c.Servers[1] }, clock)
	dev2 := client.New(tr2)
	if err := dev2.Connect(token); err != nil {
		t.Fatal(err)
	}

	root, _ := dev1.RootVolume()
	h := protocol.HashBytes([]byte("x"))
	if _, _, err := dev1.UploadSized(root, 0, "f.txt", h, 100, 80); err != nil {
		t.Fatal(err)
	}

	// The cross-server push sits in m2's broker queue until pumped.
	if n := c.PumpNotifications(); n == 0 {
		t.Fatal("expected queued notifications")
	}
	select {
	case p := <-dev2.Pushes():
		if p.Event != protocol.PushVolumeChanged {
			t.Errorf("push = %+v", p)
		}
		if _, err := dev2.HandlePush(p); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("dev2 received no push after pump")
	}
	m, _ := dev2.Mirror(root)
	if len(m.Nodes) != 1 {
		t.Errorf("dev2 mirror = %+v", m.Nodes)
	}
}

func TestDirectEventObserver(t *testing.T) {
	c := newDirectCluster(t)
	var events []apiserver.Event
	c.AddAPIObserver(func(e apiserver.Event) { events = append(events, e) })
	now := time.Unix(1390000000, 0)
	cl := directClient(t, c, 9, func() time.Time { return now })
	root, _ := cl.RootVolume()
	h := protocol.HashBytes([]byte("traced"))
	if _, _, err := cl.UploadSized(root, 0, "code.java", h, 2048, 700); err != nil {
		t.Fatal(err)
	}

	// Expect: Authenticate, ListVolumes, ListShares, MakeFile, Upload.
	var ops []protocol.Op
	for _, e := range events {
		ops = append(ops, e.Op)
	}
	want := []protocol.Op{
		protocol.OpAuthenticate, protocol.OpListVolumes, protocol.OpListShares,
		protocol.OpMakeFile, protocol.OpPutContent,
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
	up := events[len(events)-1]
	if up.Size != 2048 || up.Wire != 700 || up.Ext != "java" || up.IsUpdate {
		t.Errorf("upload event = %+v", up)
	}
	if up.Duration <= 0 {
		t.Error("upload event must carry simulated service time")
	}
}

func TestDirectFileUpdateFlag(t *testing.T) {
	c := newDirectCluster(t)
	var updates int
	c.AddAPIObserver(func(e apiserver.Event) {
		if e.Op == protocol.OpPutContent && e.IsUpdate {
			updates++
		}
	})
	now := time.Unix(1390000000, 0)
	cl := directClient(t, c, 3, func() time.Time { return now })
	root, _ := cl.RootVolume()

	v := func(s string) protocol.Hash { return protocol.HashBytes([]byte(s)) }
	put := func(name string, h protocol.Hash) {
		t.Helper()
		if _, _, err := cl.UploadSized(root, 0, name, h, 100, 90); err != nil {
			t.Fatal(err)
		}
	}
	held := func(h protocol.Hash, want bool) {
		t.Helper()
		if _, err := c.Blob.HeadHash(h); (err == nil) != want {
			t.Errorf("blob of %x held = %v, want %v", h[:4], err == nil, want)
		}
	}
	put("notes.doc", v("v1"))
	put("keep.doc", v("v1")) // a dedup hit: keep.doc holds v1 too
	// Re-uploading the same name with a different hash is an update (§5.1).
	// An update releases the old content, and the last release deletes its
	// blob, whichever path linked the new content.
	put("notes.doc", v("v2")) // uploaded
	held(v("v1"), true)
	put("keep.doc", v("v2")) // dedup hit
	held(v("v1"), false)
	put("notes.doc", v("v3"))
	held(v("v2"), true)
	put("keep.doc", v("v4")) // uploaded
	held(v("v2"), false)
	held(v("v3"), true)
	if updates != 4 {
		t.Errorf("update events = %d, want 4", updates)
	}
}

func TestDirectRescanAfterLogTruncation(t *testing.T) {
	// A tiny delta log forces the second device through the
	// RescanFromScratch path of Fig. 8.
	c := NewCluster(Config{
		Config:   metadata.Config{Shards: 2, DeltaLogLimit: 8},
		Machines: []string{"m"}, Seed: 3,
	})
	now := time.Unix(1390000000, 0)
	clock := func() time.Time { return now }
	dev1 := directClient(t, c, 50, clock)
	dev2 := directClient(t, c, 50, clock) // mirrors generation 0

	root, _ := dev1.RootVolume()
	for i := 0; i < 40; i++ {
		h := protocol.HashBytes([]byte{byte(i), 1})
		if _, _, err := dev1.UploadSized(root, 0, fmt.Sprintf("f%02d.txt", i), h, 64, 50); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := dev2.Sync(root)
	if err != nil {
		t.Fatal(err)
	}
	if dev2.Stats().Rescans != 1 {
		t.Errorf("rescans = %d, want 1 (delta log too short)", dev2.Stats().Rescans)
	}
	if len(changed) != 40 {
		t.Errorf("changed files = %d, want 40", len(changed))
	}
	m, _ := dev2.Mirror(root)
	if len(m.Nodes) != 41 { // 40 files + volume root dir
		t.Errorf("mirror nodes = %d", len(m.Nodes))
	}
}

func TestSweepUploadJobs(t *testing.T) {
	c := newDirectCluster(t)
	now := time.Unix(1390000000, 0)
	token, _ := c.Auth.Issue(40)
	tr := client.NewDirectTransport(c.LeastLoaded, func() time.Time { return now })
	cl := client.New(tr)
	if err := cl.Connect(token); err != nil {
		t.Fatal(err)
	}
	root, _ := cl.RootVolume()

	// Start a large upload but never stream the parts: laptop lid closed.
	mk, _ := tr.Do(&protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "partial.bin"})
	put, _ := tr.Do(&protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "partial.bin",
		Hash: protocol.HashBytes([]byte("abandoned")), Size: 20 << 20,
	})
	if put.Status != protocol.StatusOK || put.Reused || put.Upload == 0 {
		t.Fatalf("begin: status=%v up=%v reused=%v", put.Status, put.Upload, put.Reused)
	}
	jobs, blobs := c.SweepUploadJobs(now.Add(10 * 24 * time.Hour))
	if jobs != 1 {
		t.Errorf("swept %d jobs, want 1", jobs)
	}
	if blobs != 1 {
		t.Errorf("aborted %d multipart uploads, want 1", blobs)
	}
}

// TestConfigValidate pins the combinations OpenCluster refuses instead of
// ignoring: each bad config must fail, naming its field, and every config the
// repo's callers build must still open.
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		field string
		cfg   Config
	}{
		{"AuthFailureRate", Config{AuthFailureRate: -0.1}},
		{"AuthFailureRate", Config{AuthFailureRate: 1.5}},
		{"AdmitWatermark", Config{AdmitWatermark: -1}},
		{"SSOAdmitRate", Config{SSOAdmitRate: -1}},
		{"SSOAdmitBurst", Config{SSOAdmitRate: 1, SSOAdmitBurst: -1}},
		{"SSOAdmitBurst", Config{SSOAdmitBurst: 6}},
		{"AuthCapacity", Config{AuthCapacity: -2}},
		{"ProcsPerMachine", Config{ProcsPerMachine: -3}},
		{"Shards", Config{Config: metadata.Config{Shards: -1}}},
		{"SnapshotEvery", Config{Config: metadata.Config{Durability: "d", SnapshotEvery: -7}}},
		{"ReplicationDelay", Config{Config: metadata.Config{Regions: 2, ReplicationDelay: -5}}},
		{"FsyncPolicy", Config{Config: metadata.Config{FsyncPolicy: wal.FsyncAsync}}},
		{"SnapshotEvery", Config{Config: metadata.Config{SnapshotEvery: 64}}},
		{"FS", Config{Config: metadata.Config{FS: vfs.NewMemFS()}}},
		{"ReplicationDelay", Config{Config: metadata.Config{ReplicationDelay: 1}}},
		{"ReplicationDelay", Config{Config: metadata.Config{Regions: 1, ReplicationDelay: 2}}},
		{"EventualReads", Config{Config: metadata.Config{EventualReads: true}}},
		{"Regions", Config{Config: metadata.Config{Regions: 20, Shards: 4}}},
		{"Machines", Config{Machines: []string{"alpha", "beta", "alpha"}}},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", c.cfg, err, c.field)
		}
		if _, err := OpenCluster(c.cfg); err == nil {
			t.Errorf("OpenCluster(%+v) opened a config Validate refuses", c.cfg)
		}
	}

	good := []Config{
		{},
		{Seed: 3, AuthFailureRate: auth.PaperFailureRate, Config: metadata.Config{DeltaLogLimit: -1}},
		{AuthCapacity: 0.5, SSOAdmitRate: 0.3, SSOAdmitBurst: 6},
		{Config: metadata.Config{Durability: "d", FsyncPolicy: wal.FsyncGroupCommit, SnapshotEvery: 64, FS: vfs.NewMemFS()}},
		{Config: metadata.Config{Regions: 2, ReplicationDelay: 2, EventualReads: true}},
		{Config: metadata.Config{Regions: 4, Shards: 4}},
		{Machines: []string{"alpha", "beta"}},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}
