package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
)

// newServer builds a single API server with its dependencies for direct use.
func newServer(t *testing.T) (*apiserver.Server, *auth.Service) {
	t.Helper()
	return newServerWith(apiserver.Config{Name: "t", Procs: 2})
}

func newServerWith(cfg apiserver.Config) (*apiserver.Server, *auth.Service) {
	store := metadata.New(metadata.Config{Shards: 4})
	authSvc := auth.New(auth.Config{Seed: 1})
	srv := apiserver.New(cfg, apiserver.Deps{
		RPC:      rpc.NewServer(store, rpc.Config{Seed: 1}),
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{KeepData: cfg.InlineData}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
	})
	return srv, authSvc
}

func connected(t *testing.T, srv *apiserver.Server, authSvc *auth.Service, user protocol.UserID) *Client {
	t.Helper()
	token, err := authSvc.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(NewDirectTransport(FixedServer(srv), nil))
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	return cli
}

func TestConnectInitFlow(t *testing.T) {
	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 1)
	defer cli.Close()
	if cli.User() != 1 || cli.Session() == 0 {
		t.Errorf("user=%v session=%v", cli.User(), cli.Session())
	}
	root, ok := cli.RootVolume()
	if !ok || root == 0 {
		t.Fatal("no root volume after connect")
	}
	if _, ok := cli.Mirror(root); !ok {
		t.Error("root volume not mirrored")
	}
}

func TestConnectBadToken(t *testing.T) {
	srv, _ := newServer(t)
	cli := New(NewDirectTransport(FixedServer(srv), nil))
	err := cli.Connect("bogus")
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestDisconnectReconnectKeepsMirror(t *testing.T) {
	srv, authSvc := newServer(t)
	token, _ := authSvc.Issue(5)
	cli := New(NewDirectTransport(FixedServer(srv), nil))
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	root, _ := cli.RootVolume()
	h := protocol.HashBytes([]byte("x"))
	if _, _, err := cli.UploadSized(root, 0, "a.txt", h, 10, 8); err != nil {
		t.Fatal(err)
	}
	firstSession := cli.Session()
	if err := cli.Disconnect(); err != nil {
		t.Fatal(err)
	}
	// Reconnect: a fresh session, but local mirrors persist and the sync
	// from the retained generation returns nothing new.
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	if cli.Session() == firstSession {
		t.Error("reconnect should open a new session")
	}
	changed, err := cli.Sync(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Errorf("nothing changed server-side, got %d", len(changed))
	}
	// The volume root dir is implicit (generation 0, never in the delta
	// log); the mirror holds the one uploaded file.
	m, _ := cli.Mirror(root)
	if len(m.Nodes) != 1 {
		t.Errorf("mirror nodes = %d", len(m.Nodes))
	}
}

func TestUploadSizedAndDedupStats(t *testing.T) {
	srv, authSvc := newServer(t)
	a := connected(t, srv, authSvc, 10)
	b := connected(t, srv, authSvc, 11)
	rootA, _ := a.RootVolume()
	rootB, _ := b.RootVolume()

	h := protocol.HashBytes([]byte("shared-content"))
	if _, reused, err := a.UploadSized(rootA, 0, "one.bin", h, 100, 80); err != nil || reused {
		t.Fatalf("first upload reused=%v err=%v", reused, err)
	}
	if _, reused, err := b.UploadSized(rootB, 0, "two.bin", h, 100, 80); err != nil || !reused {
		t.Fatalf("second upload reused=%v err=%v", reused, err)
	}
	if st := b.Stats(); st.DedupHits != 1 || st.Uploads != 1 || st.BytesUp != 0 {
		t.Errorf("stats = %+v (dedup hit must not count bytes)", st)
	}
}

func TestBeginUploadLeavesJob(t *testing.T) {
	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 20)
	root, _ := cli.RootVolume()
	up, reused, err := cli.BeginUpload(root, 0, "partial.iso", protocol.HashBytes([]byte("p")), 30<<20)
	if err != nil || reused || up == 0 {
		t.Fatalf("begin: up=%v reused=%v err=%v", up, reused, err)
	}
	// Nothing committed: the file node exists but has no content.
	m, _ := cli.Mirror(root)
	for _, n := range m.Nodes {
		if n.Kind == protocol.KindFile && !n.Hash.IsZero() {
			t.Error("no content should be committed")
		}
	}
}

func TestMoveAndUnlinkUpdateMirror(t *testing.T) {
	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 30)
	root, _ := cli.RootVolume()
	dir, err := cli.Mkdir(root, 0, "d")
	if err != nil {
		t.Fatal(err)
	}
	h := protocol.HashBytes([]byte("f"))
	node, _, err := cli.UploadSized(root, dir.ID, "f.txt", h, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := cli.Move(root, node.ID, 0, "g.txt")
	if err != nil {
		t.Fatal(err)
	}
	if moved.Name != "g.txt" {
		t.Errorf("moved = %+v", moved)
	}
	if err := cli.Unlink(root, node.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Download(root, node.ID); err == nil {
		t.Error("download after unlink should fail")
	}
}

func TestSyncAppliesRemoteChanges(t *testing.T) {
	srv, authSvc := newServer(t)
	dev1 := connected(t, srv, authSvc, 40)
	dev2 := connected(t, srv, authSvc, 40)
	root, _ := dev1.RootVolume()
	for i := 0; i < 5; i++ {
		h := protocol.HashBytes([]byte{byte(i)})
		if _, _, err := dev1.UploadSized(root, 0, fmt.Sprintf("f%d", i), h, 10, 8); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := dev2.Sync(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 5 {
		t.Errorf("changed = %d", len(changed))
	}
	if dev2.Stats().SyncsRun == 0 {
		t.Error("sync counter")
	}
}

// TestRescanReportsOnlyWhatChanged pins the rescan comparison: after the
// delta log is truncated under a mirror that already holds the volume, Sync
// judges the full listing against that mirror, so an AutoFetch client
// downloads the one file that changed and not the whole volume again.
func TestRescanReportsOnlyWhatChanged(t *testing.T) {
	store := metadata.New(metadata.Config{Shards: 4, DeltaLogLimit: 2})
	authSvc := auth.New(auth.Config{Seed: 1})
	srv := apiserver.New(apiserver.Config{Name: "t", Procs: 2}, apiserver.Deps{
		RPC:      rpc.NewServer(store, rpc.Config{Seed: 1}),
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
	})
	dev1 := connected(t, srv, authSvc, 41)
	dev2 := connected(t, srv, authSvc, 41)
	dev2.AutoFetch = true
	root, _ := dev1.RootVolume()
	upload := func(name, content string) {
		t.Helper()
		if _, _, err := dev1.UploadSized(root, 0, name, protocol.HashBytes([]byte(content)), 10, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		upload(fmt.Sprintf("f%d", i), fmt.Sprintf("v0-%d", i))
	}
	if changed, err := dev2.Sync(root); err != nil || len(changed) != 10 {
		t.Fatalf("first sync: %d changed, err %v; want all 10", len(changed), err)
	}

	for v := 1; v <= 3; v++ { // three edits push the log past its two entries
		upload("f4", fmt.Sprintf("v%d-4", v))
	}
	before := dev2.Stats()
	changed, err := dev2.Sync(root)
	if err != nil {
		t.Fatal(err)
	}
	after := dev2.Stats()
	if after.Rescans != before.Rescans+1 {
		t.Fatalf("rescans went %d → %d: the sync was not served from scratch", before.Rescans, after.Rescans)
	}
	if len(changed) != 1 || changed[0].Name != "f4" {
		t.Errorf("rescan reported %d changed files (%v), want only f4", len(changed), changed)
	}
	if got := after.Downloads - before.Downloads; got != 1 {
		t.Errorf("rescan downloaded %d files, want 1", got)
	}
	if m, _ := dev2.Mirror(root); len(m.Nodes) != 11 { // a full listing names the root directory too
		t.Errorf("mirror holds %d nodes after the rescan, want 11", len(m.Nodes))
	}
}

func TestHandlePushTriggersSync(t *testing.T) {
	srv, authSvc := newServer(t)
	dev1 := connected(t, srv, authSvc, 50)
	dev2 := connected(t, srv, authSvc, 50)
	root, _ := dev1.RootVolume()
	h := protocol.HashBytes([]byte("pushme"))
	if _, _, err := dev1.UploadSized(root, 0, "p.txt", h, 10, 8); err != nil {
		t.Fatal(err)
	}
	// dev2 shares the server process, so the push is immediate.
	select {
	case p := <-dev2.Pushes():
		changed, err := dev2.HandlePush(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(changed) != 1 {
			t.Errorf("changed = %d", len(changed))
		}
	case <-time.After(5 * time.Second):
		// Generous bound: the push is delivered in-process, but CI runners
		// under -race can stall goroutines long enough to flake a 1s wait.
		t.Fatal("no push")
	}
	if dev2.Stats().PushesSeen == 0 {
		t.Error("push counter")
	}
	// A stale push (old generation) must not trigger a sync.
	before := dev2.Stats().SyncsRun
	if _, err := dev2.HandlePush(&protocol.Push{Event: protocol.PushVolumeChanged, Volume: root, Generation: 1}); err != nil {
		t.Fatal(err)
	}
	if dev2.Stats().SyncsRun != before {
		t.Error("stale push should not sync")
	}
}

func TestFlateSize(t *testing.T) {
	compressible := make([]byte, 10000) // zeros compress well
	if got := flateSize(compressible); got >= 10000 || got == 0 {
		t.Errorf("flateSize(zeros) = %d", got)
	}
	if got := flateSize(nil); got != 0 && got > 16 {
		t.Errorf("flateSize(nil) = %d", got)
	}
}

func TestServiceTimeAccumulates(t *testing.T) {
	srv, authSvc := newServer(t)
	token, _ := authSvc.Issue(60)
	tr := NewDirectTransport(FixedServer(srv), nil)
	cli := New(tr)
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	root, _ := cli.RootVolume()
	h := protocol.HashBytes([]byte("svc"))
	if _, _, err := cli.UploadSized(root, 0, "s.txt", h, 10, 8); err != nil {
		t.Fatal(err)
	}
	if tr.ServiceTime() <= 0 {
		t.Error("service time should accumulate")
	}
	if tr.Session() == nil {
		t.Error("session should be live")
	}
}

// TestStatusClassificationCoversAllStatuses is the table-driven audit of
// satellite concern #1: for every status the server can put on the wire, the
// client's reaction must match the server's semantics — per-op failures must
// not be treated as connection-fatal and vice versa. protocol.Statuses()
// covers the whole vocabulary, so adding a status without classifying it
// here fails the length check.
func TestStatusClassificationCoversAllStatuses(t *testing.T) {
	want := map[protocol.Status]statusClass{
		protocol.StatusOK: classSuccess,
		// Transient server-side conditions: same session, retry later.
		protocol.StatusUnavailable: classRetryable,
		protocol.StatusOverloaded:  classRetryable,
		protocol.StatusCancelled:   classRetryable,
		// The session is gone (or never existed): only a reconnect helps.
		protocol.StatusAuthFailed: classSessionFatal,
		// Per-op failures: resending the same request cannot succeed, but
		// the session lives on.
		protocol.StatusNotFound:   classPermanent,
		protocol.StatusExists:     classPermanent,
		protocol.StatusPermission: classPermanent,
		protocol.StatusBadRequest: classPermanent,
		protocol.StatusConflict:   classPermanent,
		protocol.StatusQuota:      classPermanent,
	}
	all := protocol.Statuses()
	if len(want) != len(all) {
		t.Fatalf("classification table covers %d of %d statuses", len(want), len(all))
	}
	for _, s := range all {
		if got := classifyStatus(s); got != want[s] {
			t.Errorf("classifyStatus(%v) = %d, want %d", s, got, want[s])
		}
	}
	// Future statuses default to permanent: fail the op, keep the session.
	if got := classifyStatus(protocol.Status(200)); got != classPermanent {
		t.Errorf("unknown status classified %d, want permanent", got)
	}
}

// scriptedTransport serves canned statuses and records what the client sent.
type scriptedTransport struct {
	serve func(i int, req *protocol.Request) protocol.Status
	reqs  []protocol.Request // shallow copies (Op/Attempt/Delay)
}

func (s *scriptedTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	s.reqs = append(s.reqs, *req)
	return &protocol.Response{ID: req.ID, Status: s.serve(len(s.reqs)-1, req)}, nil
}
func (s *scriptedTransport) Pushes() <-chan *protocol.Push { return nil }
func (s *scriptedTransport) Close() error                  { return nil }

// TestRetryTransientThenSucceed pins the retry loop: transient failures are
// resent with an increasing attempt counter and accumulating virtual
// backoff, and the eventual success counts as a retry success.
func TestRetryTransientThenSucceed(t *testing.T) {
	tr := &scriptedTransport{serve: func(i int, _ *protocol.Request) protocol.Status {
		if i < 2 {
			return protocol.StatusOverloaded
		}
		return protocol.StatusOK
	}}
	cli := New(tr)
	cli.Retry = Retry{Max: 3, Backoff: 2 * time.Second}
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping should succeed on third attempt: %v", err)
	}
	if len(tr.reqs) != 3 {
		t.Fatalf("attempts = %d, want 3", len(tr.reqs))
	}
	for i, req := range tr.reqs {
		if int(req.Attempt) != i {
			t.Errorf("attempt %d stamped %d", i, req.Attempt)
		}
	}
	if tr.reqs[0].Delay != 0 || tr.reqs[1].Delay != 2*time.Second || tr.reqs[2].Delay != 6*time.Second {
		t.Errorf("backoff delays = %v %v %v, want 0s 2s 6s",
			tr.reqs[0].Delay, tr.reqs[1].Delay, tr.reqs[2].Delay)
	}
	st := cli.Stats()
	if st.Retries != 2 || st.RetrySuccesses != 1 || st.OpErrors != 0 {
		t.Errorf("stats = %+v, want 2 retries, 1 retry success, 0 errors", st)
	}
}

// TestRetryBudgetExhausted pins the bound: Max retries then give up with the
// last status.
func TestRetryBudgetExhausted(t *testing.T) {
	tr := &scriptedTransport{serve: func(int, *protocol.Request) protocol.Status {
		return protocol.StatusUnavailable
	}}
	cli := New(tr)
	cli.Retry = Retry{Max: 2, Backoff: time.Second}
	err := cli.Ping()
	if !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("err = %v, want unavailable", err)
	}
	if len(tr.reqs) != 3 {
		t.Errorf("attempts = %d, want 1 + 2 retries", len(tr.reqs))
	}
	st := cli.Stats()
	if st.Retries != 2 || st.RetrySuccesses != 0 || st.OpErrors != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNoRetryForPermanentOrSessionFatal pins the classification split: a
// permanent failure and a session-level failure are never resent, with or
// without a retry budget.
func TestNoRetryForPermanentOrSessionFatal(t *testing.T) {
	for _, status := range []protocol.Status{protocol.StatusNotFound, protocol.StatusAuthFailed} {
		tr := &scriptedTransport{serve: func(int, *protocol.Request) protocol.Status { return status }}
		cli := New(tr)
		cli.Retry = Retry{Max: 5}
		err := cli.Ping()
		if !errors.Is(err, status.Err()) {
			t.Fatalf("status %v: err = %v", status, err)
		}
		if len(tr.reqs) != 1 {
			t.Errorf("status %v: attempts = %d, want 1", status, len(tr.reqs))
		}
	}
}

// TestZeroRetryPolicyPreservesBehavior pins the default: without a budget
// the first transient failure is final — the faithful §3.3 client.
func TestZeroRetryPolicyPreservesBehavior(t *testing.T) {
	tr := &scriptedTransport{serve: func(int, *protocol.Request) protocol.Status {
		return protocol.StatusUnavailable
	}}
	cli := New(tr)
	if err := cli.Ping(); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if len(tr.reqs) != 1 {
		t.Errorf("attempts = %d, want 1", len(tr.reqs))
	}
}

// TestConnectSurvivesInitFlowFailure pins the satellite-1 fix: a per-op
// failure in the post-auth listing flow must not be treated as a failed
// connection. The session stays up and Connect reports success.
func TestConnectSurvivesInitFlowFailure(t *testing.T) {
	tr := &scriptedTransport{serve: func(_ int, req *protocol.Request) protocol.Status {
		if req.Op == protocol.OpAuthenticate {
			return protocol.StatusOK
		}
		return protocol.StatusUnavailable // every listing call fails
	}}
	cli := New(tr)
	if err := cli.Connect("tok"); err != nil {
		t.Fatalf("Connect treated a per-op failure as connection-fatal: %v", err)
	}
	if cli.Stats().OpErrors != 2 {
		t.Errorf("op errors = %d, want ListVolumes + ListShares", cli.Stats().OpErrors)
	}
}

// TestConnectStillFatalOnSessionLossOrDeadTransport bounds the tolerance: a
// session-fatal status on a listing leg (the session was revoked between
// Authenticate and ListVolumes) or a transport that dies mid-flow must
// still abort Connect — only per-op failures are survivable.
func TestConnectStillFatalOnSessionLossOrDeadTransport(t *testing.T) {
	tr := &scriptedTransport{serve: func(_ int, req *protocol.Request) protocol.Status {
		if req.Op == protocol.OpAuthenticate {
			return protocol.StatusOK
		}
		return protocol.StatusAuthFailed // session gone underneath us
	}}
	if err := New(tr).Connect("tok"); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("session loss on the listing leg: err = %v, want auth failed", err)
	}

	dead := &dyingTransport{}
	if err := New(dead).Connect("tok"); !errors.Is(err, ErrClosed) {
		t.Errorf("dead transport mid-flow: err = %v, want ErrClosed", err)
	}
}

// dyingTransport authenticates, then fails at the transport level.
type dyingTransport struct{ calls int }

func (d *dyingTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	d.calls++
	if req.Op == protocol.OpAuthenticate {
		return &protocol.Response{ID: req.ID, Status: protocol.StatusOK}, nil
	}
	return nil, ErrClosed
}
func (d *dyingTransport) Pushes() <-chan *protocol.Push { return nil }
func (d *dyingTransport) Close() error                  { return nil }

// TestDirectTransportAppliesVirtualBackoff proves the simulator leg of
// retry-with-backoff: a request carrying Delay is handled at clock+Delay, so
// the server (and its deterministic fault plan) sees a later virtual instant.
func TestDirectTransportAppliesVirtualBackoff(t *testing.T) {
	srv, authSvc := newServer(t)
	var events []apiserver.Event
	srv.AddObserver(func(e apiserver.Event) { events = append(events, e) })
	t0 := time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)
	tr := NewDirectTransport(FixedServer(srv), func() time.Time { return t0 })
	cli := New(tr)
	token, _ := authSvc.Issue(80)
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Do(&protocol.Request{Op: protocol.OpListVolumes, Delay: 7 * time.Second}); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if !last.Start.Equal(t0.Add(7 * time.Second)) {
		t.Errorf("delayed request handled at %v, want %v", last.Start, t0.Add(7*time.Second))
	}
}

func TestTransportClosedBehavior(t *testing.T) {
	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 70)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	// Non-auth requests on a session-less transport fail with auth status.
	if err := cli.Ping(); err == nil {
		t.Error("ping after close should fail")
	}
}

// partServer answers GetContent with an announced size and part count and
// GetPart with the scripted parts.
type partServer struct {
	size  uint64
	parts [][]byte
}

func (s *partServer) Do(req *protocol.Request) (*protocol.Response, error) {
	resp := &protocol.Response{ID: req.ID, Status: protocol.StatusOK}
	switch req.Op {
	case protocol.OpGetContent:
		resp.Size, resp.Parts = s.size, uint32(len(s.parts))
		resp.Hash = protocol.HashBytes(bytes.Join(s.parts, nil))
	case protocol.OpGetPart:
		resp.Data = s.parts[req.Part]
	}
	return resp, nil
}
func (s *partServer) Pushes() <-chan *protocol.Push { return nil }
func (s *partServer) Close() error                  { return nil }

// TestDownloadAssemblesPartsInOneAllocation pins the multipart download: the
// body is allocated once at its announced size, a hostile Size is capped by
// the announced part count, a metered server's empty parts allocate nothing,
// and the hash check still guards the result.
func TestDownloadAssemblesPartsInOneAllocation(t *testing.T) {
	first := bytes.Repeat([]byte{7}, blob.PartSize)
	last := []byte("tail of the file")
	body := append(append([]byte(nil), first...), last...)

	honest := &partServer{size: uint64(len(body)), parts: [][]byte{first, last}}
	got, err := New(honest).Download(1, 2)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("download: %d bytes, err %v", len(got), err)
	}
	if cap(got) != len(body) {
		t.Errorf("body of %d bytes assembled in a buffer of %d", len(body), cap(got))
	}

	hostile := &partServer{size: 1 << 60, parts: [][]byte{first, last}}
	got, err = New(hostile).Download(1, 2)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("download with a lying Size: %d bytes, err %v", len(got), err)
	}
	if cap(got) > 2*blob.PartSize {
		t.Errorf("a lying Size forced a %d-byte allocation for 2 parts", cap(got))
	}

	metered := &partServer{size: 12 << 20, parts: [][]byte{nil, nil, nil}}
	if got, err := New(metered).Download(1, 2); err != nil || got != nil {
		t.Errorf("metered download = %d bytes (cap %d), err %v; want nil", len(got), cap(got), err)
	}

	if _, err := New(&tamperingTransport{Transport: honest}).Download(1, 2); err == nil {
		t.Error("a corrupted part passed the hash check")
	}
}

// tamperingTransport flips a byte of the second part it relays.
type tamperingTransport struct{ Transport }

func (t *tamperingTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	resp, err := t.Transport.Do(req)
	if err == nil && req.Op == protocol.OpGetPart && req.Part == 1 {
		resp.Data = append([]byte(nil), resp.Data...)
		resp.Data[0] ^= 1
	}
	return resp, err
}
