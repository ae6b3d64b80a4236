package apiserver

import (
	"errors"
	"strings"
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

// pushLog is a Pusher that keeps every push it is sent.
type pushLog []*protocol.Push

func (l *pushLog) Push(p *protocol.Push) { *l = append(*l, p) }

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
	// The uploadjob opened its multipart upload.
	if bs := f.blob.Stats(); bs.MultipartCreated != 1 {
		t.Fatalf("blob stats = %+v, want one multipart upload", bs)
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
	if err := f.store.DeleteUploadJob(1, put.Upload); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("uploadjob should be deleted after commit (delete again: %v)", err)
	}
	if got, err := f.blob.HeadHash(h); err != nil || got != size {
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

// TestPutPartBoundedByDeclaredSize is the metered-mode half of the part rules
// (the inline half runs over both transports in internal/server): size-only
// parts must add up to the size PutContent declared, every one but the final
// one exactly blob.PartSize, exactly like parts with bytes. A refused part
// ends the upload and aborts its multipart.
func TestPutPartBoundedByDeclaredSize(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 6)
	root := f.rootOf(t, sess)
	type part struct {
		size  uint64
		final bool
		want  protocol.Status
	}
	const ok, bad, gone = protocol.StatusOK, protocol.StatusBadRequest, protocol.StatusNotFound
	for _, tc := range []struct {
		name    string
		size    uint64
		parts   []part
		aborted uint64
	}{
		{"past the declared size", 12 << 20, []part{{5 << 20, false, ok}, {5 << 20, false, ok}, {5 << 20, false, bad}, {5 << 20, false, gone}}, 1},
		{"short final one-part", 1000, []part{{10, true, bad}, {1000, true, gone}}, 0},
		{"short final multipart", 12 << 20, []part{{5 << 20, true, bad}, {7 << 20, true, gone}}, 1},
		{"short non-final part", 12 << 20, []part{{4 << 10, false, bad}, {5 << 20, false, gone}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := f.blob.Stats()
			mk, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: tc.name}, t0)
			put, _ := f.srv.Handle(sess, &protocol.Request{
				Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: tc.name,
				Hash: protocol.HashBytes([]byte(tc.name)), Size: tc.size,
			}, t0)
			for i, p := range tc.parts {
				resp, _ := f.srv.Handle(sess, &protocol.Request{
					Op: protocol.OpPutPart, Upload: put.Upload, Part: uint32(i), Size: p.size, Final: p.final,
				}, t0)
				if resp.Status != p.want {
					t.Errorf("part %d: %v, want %v", i, resp.Status, p.want)
				}
			}
			bs := f.blob.Stats()
			if bs.BytesHeld != before.BytesHeld || bs.Objects != before.Objects || bs.MultipartAborted-before.MultipartAborted != tc.aborted {
				t.Errorf("blob stats after the refused stream = %+v, before %+v", bs, before)
			}
		})
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
	if n := f.store.SweepUploadJobs(t0.Add(metadata.UploadJobMaxAge + time.Hour)); n != 1 {
		t.Errorf("GC swept %d uploadjob rows, want the abandoned one", n)
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
	if resp.Deltas.Len() != 41 { // 40 dirs + volume root
		t.Errorf("rescan deltas = %d", resp.Deltas.Len())
	}
}

func TestNotificationFanOut(t *testing.T) {
	f := newFixture(t)
	var got pushLog
	token, _ := f.auth.Issue(7)
	sess1, _, _ := f.srv.OpenSession(token, nil, t0)
	f.srv.OpenSession(token, &got, t0)
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

// arrivals is a Pusher that notes, in a list shared by several sessions,
// which session a push reached.
type arrivals struct {
	name  string
	order *[]string
}

func (a arrivals) Push(*protocol.Push) { *a.order = append(*a.order, a.name) }

// TestPushOrderSurvivesOutOfOrderCloses opens four listening sessions of one
// user, closes three of them out of order, and requires every change to
// reach the sessions still open in ascending session order.
func TestPushOrderSurvivesOutOfOrderCloses(t *testing.T) {
	f := newFixture(t)
	token, _ := f.auth.Issue(7)
	origin, _, _ := f.srv.OpenSession(token, nil, t0)
	root := f.rootOf(t, origin)
	var order []string
	sessions := map[string]*Session{}
	for _, name := range []string{"a", "b", "c", "d"} {
		sess, resp, _ := f.srv.OpenSession(token, arrivals{name, &order}, t0)
		if resp.Status != protocol.StatusOK {
			t.Fatalf("open %s: %v", name, resp.Status)
		}
		sessions[name] = sess
	}
	for i, step := range []struct{ close, want string }{{"c", "abd"}, {"a", "bd"}, {"d", "b"}} {
		f.srv.CloseSession(sessions[step.close], t0)
		order = order[:0]
		resp, _ := f.srv.Handle(origin, &protocol.Request{Op: protocol.OpMakeDir, Volume: root, Name: step.close}, t0)
		if resp.Status != protocol.StatusOK {
			t.Fatalf("make dir %s: %v", step.close, resp.Status)
		}
		if got := strings.Join(order, ""); got != step.want {
			t.Errorf("after closing %s (close %d): pushes reached %q, want %q", step.close, i+1, got, step.want)
		}
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

// TestProcOpsAccounting checks that every operation reaches the observers
// attributed to one of the server's processes, the per-process load Fig. 14
// is drawn from.
func TestProcOpsAccounting(t *testing.T) {
	f := newFixture(t)
	var total int
	f.srv.AddObserver(func(e Event) {
		if e.Proc < 0 || e.Proc >= 2 {
			t.Errorf("op %v on proc %d, want one of 2", e.Op, e.Proc)
		}
		total++
	})
	sess := f.session(t, 9)
	for i := 0; i < 10; i++ {
		f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing}, t0)
	}
	if total < 11 { // auth + pings
		t.Errorf("proc ops = %d", total)
	}
}
