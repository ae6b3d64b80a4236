package apiserver

import (
	"testing"
	"time"

	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
)

var t0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

type fixture struct {
	srv    *Server
	store  *metadata.Store
	blob   *blob.Store
	auth   *auth.Service
	broker *notify.Broker
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		store:  metadata.New(metadata.Config{Shards: 4}),
		blob:   blob.New(blob.Config{}),
		auth:   auth.New(auth.Config{Seed: 1}),
		broker: notify.NewBroker(),
	}
	f.srv = New(Config{Name: "m", Procs: 2}, Deps{
		RPC:      rpc.NewServer(f.store, rpc.Config{Seed: 1}),
		Auth:     f.auth,
		Blob:     f.blob,
		Broker:   f.broker,
		Transfer: blob.DefaultTransferModel(),
	})
	return f
}

func (f *fixture) session(t *testing.T, user protocol.UserID) *Session {
	t.Helper()
	token, err := f.auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	sess, resp, _ := f.srv.OpenSession(token, nil, t0)
	if resp.Status != protocol.StatusOK || sess == nil {
		t.Fatalf("open session: %v", resp.Status)
	}
	return sess
}

func (f *fixture) rootOf(t *testing.T, sess *Session) protocol.VolumeID {
	t.Helper()
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
	if resp.Status != protocol.StatusOK || len(resp.Volumes) == 0 {
		t.Fatalf("list volumes: %+v", resp)
	}
	return resp.Volumes[0].ID
}

func TestOpenSessionBadToken(t *testing.T) {
	f := newFixture(t)
	sess, resp, _ := f.srv.OpenSession("nope", nil, t0)
	if sess != nil || resp.Status != protocol.StatusAuthFailed {
		t.Errorf("sess=%v status=%v", sess, resp.Status)
	}
}

func TestHandleWithoutSession(t *testing.T) {
	f := newFixture(t)
	resp, _ := f.srv.Handle(nil, &protocol.Request{Op: protocol.OpPing}, t0)
	if resp.Status != protocol.StatusAuthFailed {
		t.Errorf("status = %v", resp.Status)
	}
}

func TestTokenCacheSkipsAuthService(t *testing.T) {
	f := newFixture(t)
	token, _ := f.auth.Issue(9)
	f.srv.OpenSession(token, nil, t0)
	before := f.auth.Stats().Validated
	// Second session with the same token within the TTL: served from cache.
	sess, resp, _ := f.srv.OpenSession(token, nil, t0.Add(time.Minute))
	if resp.Status != protocol.StatusOK || sess == nil {
		t.Fatal("cached auth failed")
	}
	if f.auth.Stats().Validated != before {
		t.Error("cached token must not hit the auth service")
	}
}

// TestUploadStateMachine walks the Fig. 17 lifecycle explicitly: PutContent
// (dedup miss) → uploadjob + multipart id → parts → final part commits
// content, deletes the job and stores the blob.
func TestUploadStateMachine(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 1)
	root := f.rootOf(t, sess)

	mk, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "big.iso"}, t0)
	if mk.Status != protocol.StatusOK {
		t.Fatal(mk.Status)
	}
	h := protocol.HashBytes([]byte("iso"))
	const size = 12 << 20 // 3 parts

	put, _ := f.srv.Handle(sess, &protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID,
		Name: "big.iso", Hash: h, Size: size,
	}, t0)
	if put.Status != protocol.StatusOK || put.Reused || put.Upload == 0 {
		t.Fatalf("put = %+v", put)
	}
	// The uploadjob exists with the multipart id set.
	job, err := f.store.GetUploadJob(1, put.Upload)
	if err != nil || job.MultipartID == "" {
		t.Fatalf("job = %+v err=%v", job, err)
	}

	for i := 0; i < 3; i++ {
		partSize := uint64(5 << 20)
		if i == 2 {
			partSize = 2 << 20
		}
		resp, _ := f.srv.Handle(sess, &protocol.Request{
			Op: protocol.OpPutPart, Upload: put.Upload,
			Part: uint32(i), Size: partSize, Final: i == 2,
		}, t0.Add(time.Duration(i)*time.Second))
		if resp.Status != protocol.StatusOK {
			t.Fatalf("part %d: %v", i, resp.Status)
		}
		if i == 2 && resp.Node.Hash != h {
			t.Errorf("final response node = %+v", resp.Node)
		}
	}

	// Job gone (dal.delete_uploadjob on commit), blob committed.
	if _, err := f.store.GetUploadJob(1, put.Upload); err == nil {
		t.Error("uploadjob should be deleted after commit")
	}
	if got, err := f.blob.HeadObject(h.Hex()); err != nil || got != size {
		t.Errorf("blob = %d, %v", got, err)
	}
	if bs := f.blob.Stats(); bs.MultipartCompleted != 1 || bs.PartsUploaded != 3 {
		t.Errorf("blob stats = %+v", bs)
	}
}

func TestUploadSmallFileSkipsMultipart(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 2)
	root := f.rootOf(t, sess)
	mk, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "s.txt"}, t0)
	h := protocol.HashBytes([]byte("small"))
	put, _ := f.srv.Handle(sess, &protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "s.txt", Hash: h, Size: 100,
	}, t0)
	resp, _ := f.srv.Handle(sess, &protocol.Request{
		Op: protocol.OpPutPart, Upload: put.Upload, Part: 0, Size: 100, Final: true,
	}, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatal(resp.Status)
	}
	if bs := f.blob.Stats(); bs.MultipartCreated != 0 || bs.Puts != 1 {
		t.Errorf("small upload should use a single put: %+v", bs)
	}
}

// TestPutPartBoundedByDeclaredSize is the metered-mode half of the bound (the
// inline half runs over both transports in internal/server): size-only parts
// are held to the size PutContent declared, exactly like parts with bytes.
func TestPutPartBoundedByDeclaredSize(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 6)
	root := f.rootOf(t, sess)
	mk, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "big.iso"}, t0)
	put, _ := f.srv.Handle(sess, &protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "big.iso",
		Hash: protocol.HashBytes([]byte("hostile")), Size: 12 << 20,
	}, t0)
	for i, want := range []protocol.Status{protocol.StatusOK, protocol.StatusOK, protocol.StatusBadRequest, protocol.StatusNotFound} {
		resp, _ := f.srv.Handle(sess, &protocol.Request{
			Op: protocol.OpPutPart, Upload: put.Upload, Part: uint32(i), Size: 5 << 20,
		}, t0)
		if resp.Status != want {
			t.Errorf("part %d: %v, want %v", i, resp.Status, want)
		}
	}
	if bs := f.blob.Stats(); bs.BytesHeld != 0 || bs.MultipartAborted != 1 {
		t.Errorf("blob stats after the refused stream = %+v", bs)
	}
}

func TestPutPartWrongSession(t *testing.T) {
	f := newFixture(t)
	sess1 := f.session(t, 3)
	sess2 := f.session(t, 4)
	root := f.rootOf(t, sess1)
	mk, _ := f.srv.Handle(sess1, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "f"}, t0)
	put, _ := f.srv.Handle(sess1, &protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "f",
		Hash: protocol.HashBytes([]byte("z")), Size: 10,
	}, t0)
	// Another session cannot feed parts into someone else's upload.
	resp, _ := f.srv.Handle(sess2, &protocol.Request{
		Op: protocol.OpPutPart, Upload: put.Upload, Size: 10, Final: true,
	}, t0)
	if resp.Status != protocol.StatusNotFound {
		t.Errorf("status = %v", resp.Status)
	}
}

func TestCloseSessionAbandonsUploads(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 5)
	root := f.rootOf(t, sess)
	mk, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "f"}, t0)
	put, _ := f.srv.Handle(sess, &protocol.Request{
		Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "f",
		Hash: protocol.HashBytes([]byte("q")), Size: 10,
	}, t0)
	f.srv.CloseSession(sess, t0)
	if f.srv.SessionCount() != 0 {
		t.Error("session should be gone")
	}
	// The pending upload is dropped server-side; the uploadjob row stays
	// for the weekly GC.
	sess2 := f.session(t, 5)
	resp, _ := f.srv.Handle(sess2, &protocol.Request{
		Op: protocol.OpPutPart, Upload: put.Upload, Size: 10, Final: true,
	}, t0)
	if resp.Status != protocol.StatusNotFound {
		t.Errorf("resumed part status = %v", resp.Status)
	}
	if _, err := f.store.GetUploadJob(5, put.Upload); err != nil {
		t.Error("uploadjob row should await GC")
	}
}

func TestGetDeltaRescanFallback(t *testing.T) {
	store := metadata.New(metadata.Config{Shards: 2, DeltaLogLimit: 8})
	f := &fixture{
		store:  store,
		blob:   blob.New(blob.Config{}),
		auth:   auth.New(auth.Config{Seed: 1}),
		broker: notify.NewBroker(),
	}
	f.srv = New(Config{Name: "m", Procs: 2}, Deps{
		RPC:      rpc.NewServer(store, rpc.Config{Seed: 1}),
		Auth:     f.auth,
		Blob:     f.blob,
		Broker:   f.broker,
		Transfer: blob.DefaultTransferModel(),
	})
	sess := f.session(t, 6)
	root := f.rootOf(t, sess)
	for i := 0; i < 40; i++ {
		f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeDir, Volume: root, Name: string(rune('a' + i))}, t0)
	}
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpGetDelta, Volume: root, FromGen: 0}, t0)
	if resp.Status != protocol.StatusOK || !resp.Rescan {
		t.Fatalf("resp = status %v rescan %v", resp.Status, resp.Rescan)
	}
	if len(resp.Deltas) != 41 { // 40 dirs + volume root
		t.Errorf("rescan deltas = %d", len(resp.Deltas))
	}
}

func TestNotificationFanOut(t *testing.T) {
	f := newFixture(t)
	var got []*protocol.Push
	token, _ := f.auth.Issue(7)
	sess1, _, _ := f.srv.OpenSession(token, nil, t0)
	sess2, _, _ := f.srv.OpenSession(token, PusherFunc(func(p *protocol.Push) { got = append(got, p) }), t0)
	_ = sess2
	root := f.rootOf(t, sess1)
	f.srv.Handle(sess1, &protocol.Request{Op: protocol.OpMakeDir, Volume: root, Name: "d"}, t0)
	if len(got) != 1 || got[0].Event != protocol.PushVolumeChanged {
		t.Fatalf("pushes = %+v", got)
	}
	// The origin session never hears its own change: sess1 has no pusher
	// anyway, but the exclusion is what keeps echo out.
	if got[0].Volume != root {
		t.Errorf("push volume = %v", got[0].Volume)
	}
}

func TestExtOf(t *testing.T) {
	cases := map[string]string{
		"song.MP3":               "mp3",
		"archive.tar":            "tar",
		"noext":                  "",
		"weird.withaverylongext": "",
		".hidden":                "hidden",
	}
	for in, want := range cases {
		if got := extOf(in); got != want {
			t.Errorf("extOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknownOpRejected(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 8)
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.Op(200)}, t0)
	if resp.Status != protocol.StatusBadRequest {
		t.Errorf("status = %v", resp.Status)
	}
}

func TestProcOpsAccounting(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 9)
	for i := 0; i < 10; i++ {
		f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing}, t0)
	}
	var total uint64
	for _, n := range f.srv.ProcOps() {
		total += n
	}
	if total < 11 { // auth + pings
		t.Errorf("proc ops = %d", total)
	}
}
