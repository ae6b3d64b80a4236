package apiserver

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/vfs"
)

// stageLatency charges every RPC the same service time, so a request's cost
// counts the RPCs it issued.
type stageLatency time.Duration

func (l stageLatency) Sample(*rand.Rand, protocol.RPCClass) time.Duration { return time.Duration(l) }

// downRegions is a two-region topology whose every volume's owner is down.
type downRegions struct{}

func (downRegions) WriteUnavailable(protocol.VolumeID) bool { return true }
func (downRegions) Regions() int                            { return 2 }

// stageEnv is one server built for a TestDispatchStages row, with its
// registry, the events it emitted and the pushes each labelled session got.
type stageEnv struct {
	*fixture
	reg    *metrics.Registry
	events []Event
	pushes map[string]*pushLog
}

func newStageEnv(store metadata.Config, cfg Config, deps Deps) *stageEnv {
	e := &stageEnv{
		fixture: &fixture{
			store:  metadata.New(store),
			blob:   blob.New(blob.Config{KeepData: cfg.InlineData}),
			auth:   auth.New(auth.Config{Seed: 1}),
			broker: notify.NewBroker(),
		},
		reg:    metrics.NewRegistry(),
		pushes: make(map[string]*pushLog),
	}
	cfg.Name, cfg.Procs = "m", 2
	deps.RPC = rpc.NewServer(e.store, rpc.Config{Seed: 1, Metrics: e.reg, Latency: stageLatency(time.Millisecond)})
	deps.Auth, deps.Blob, deps.Broker, deps.Metrics = e.auth, e.blob, e.broker, e.reg
	deps.Transfer = blob.DefaultTransferModel()
	e.srv = New(cfg, deps)
	e.srv.AddObserver(func(ev Event) { e.events = append(e.events, ev) })
	return e
}

// open authenticates user on a session whose pushes are tallied under label.
func (e *stageEnv) open(t *testing.T, user protocol.UserID, label string) *Session {
	t.Helper()
	token, err := e.auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	e.pushes[label] = new(pushLog)
	sess, resp, _ := e.srv.OpenSession(token, e.pushes[label], t0)
	if resp.Status != protocol.StatusOK || sess == nil {
		t.Fatalf("open %s session: %v", label, resp.Status)
	}
	return sess
}

// stageCounts are the registry counters one request can move.
type stageCounts struct {
	count, errors, hist                         uint64
	injected, shed, ssoShed, retried, retriedOK uint64
	regionRefused, journaled                    uint64
}

func (e *stageEnv) counts(op protocol.Op) stageCounts {
	snap := e.reg.Snapshot()
	series := metrics.APIOp(op.String())
	return stageCounts{
		count:         snap.Counter(series.Count),
		errors:        snap.Counter(series.Errors),
		hist:          snap.Histogram(series.Seconds).Count,
		injected:      snap.Counter(metrics.FaultsInjected),
		shed:          snap.Counter(metrics.FaultsShed),
		ssoShed:       snap.Counter(metrics.FaultsSSOShed),
		retried:       snap.Counter(metrics.FaultsRetried),
		retriedOK:     snap.Counter(metrics.FaultsRetrySucceeded),
		regionRefused: snap.Counter(metrics.APIRegionRefused),
		journaled:     snap.Counter(metrics.WALJournaled),
	}
}

func (c stageCounts) minus(o stageCounts) stageCounts {
	return stageCounts{
		c.count - o.count, c.errors - o.errors, c.hist - o.hist,
		c.injected - o.injected, c.shed - o.shed, c.ssoShed - o.ssoShed, c.retried - o.retried, c.retriedOK - o.retriedOK,
		c.regionRefused - o.regionRefused, c.journaled - o.journaled,
	}
}

// stageWant is what one TestDispatchStages row expects of its request.
type stageWant struct {
	status protocol.Status
	event  bool // one trace event, carrying status and the cost
	cost   time.Duration
	counts stageCounts    // counter deltas
	pushes map[string]int // per labelled session; nil means none
}

// TestDispatchStages characterizes the request path stage by stage: one row
// per stage that can decide or decorate an answer, each asserting the wire
// status and correlation ID, the trace event, the per-op metrics, the cost
// charged and the fault, region and journal counters the request moved.
func TestDispatchStages(t *testing.T) {
	const (
		viaHandle = iota
		viaOpen   // OpenSession: the one route a sessionless Authenticate takes
		viaProbe  // Handle with an abort probe reporting a dead client
	)
	const ms = time.Millisecond
	inRoot := func(t *testing.T, e *stageEnv, sess *Session, req *protocol.Request) { req.Volume = e.rootOf(t, sess) }
	// inNewFile points the request at a new file in the root volume.
	inNewFile := func(t *testing.T, e *stageEnv, sess *Session, req *protocol.Request) {
		inRoot(t, e, sess, req)
		mk, _ := e.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: req.Volume, Name: req.Name}, t0)
		req.Node = mk.Node.ID
	}
	content := protocol.HashBytes([]byte("content"))
	rows := []struct {
		name string
		cfg  Config
		// durable opens the row's store journaled (per-op fsync) on an
		// in-memory disk; the server reads its sync charge from it.
		durable   bool
		deps      Deps
		via       int
		noSession bool
		req       protocol.Request
		// prep runs once the row's session is open, before the counters are
		// read; it may fill in the request.
		prep func(t *testing.T, e *stageEnv, sess *Session, req *protocol.Request)
		want stageWant
	}{
		{name: "success", req: protocol.Request{ID: 77, Op: protocol.OpListVolumes},
			want: stageWant{status: protocol.StatusOK, event: true, cost: ms, counts: stageCounts{count: 1, hist: 1}}},
		{name: "no session", noSession: true, req: protocol.Request{ID: 77, Op: protocol.OpPing},
			want: stageWant{status: protocol.StatusAuthFailed}},
		{name: "injected fault", req: protocol.Request{ID: 77, Op: protocol.OpPing},
			cfg: Config{Faults: &faults.Plan{Seed: 7, Rules: map[protocol.Op]faults.Rule{
				protocol.OpPing: {Fraction: 1, Status: protocol.StatusUnavailable}}}},
			want: stageWant{status: protocol.StatusUnavailable, event: true, counts: stageCounts{count: 1, errors: 1, injected: 1}}},
		{name: "region down", req: protocol.Request{ID: 77, Op: protocol.OpMakeFile, Name: "f"},
			deps: Deps{Regions: downRegions{}}, prep: inRoot,
			want: stageWant{status: protocol.StatusUnavailable, event: true, counts: stageCounts{count: 1, errors: 1, regionRefused: 1}}},
		{name: "sso bucket dry", via: viaOpen, noSession: true, req: protocol.Request{Op: protocol.OpAuthenticate},
			deps: Deps{SSO: faults.NewSSOAdmission(1e-9, 1)},
			// The session opened here takes the bucket's one token.
			prep: func(t *testing.T, e *stageEnv, _ *Session, _ *protocol.Request) { e.open(t, 2, "drain") },
			want: stageWant{status: protocol.StatusOverloaded, event: true, counts: stageCounts{count: 1, errors: 1, ssoShed: 1}}},
		{name: "per-process shed", req: protocol.Request{ID: 77, Op: protocol.OpGetContent, Node: 1},
			cfg: Config{AdmitWatermark: 1},
			prep: func(t *testing.T, e *stageEnv, sess *Session, _ *protocol.Request) {
				e.srv.Handle(sess, &protocol.Request{Op: protocol.OpGetContent, Node: 1}, t0)
			},
			want: stageWant{status: protocol.StatusOverloaded, event: true, counts: stageCounts{count: 1, errors: 1, shed: 1}}},
		{name: "aborted probe", via: viaProbe, req: protocol.Request{ID: 77, Op: protocol.OpListVolumes},
			want: stageWant{status: protocol.StatusCancelled, event: true, counts: stageCounts{count: 1, errors: 1}}},
		{name: "handler error", req: protocol.Request{ID: 77, Op: protocol.OpGetContent, Node: 99},
			want: stageWant{status: protocol.StatusNotFound, event: true, cost: ms, counts: stageCounts{count: 1, errors: 1, hist: 1}}},
		// One make_file RPC plus the per-op fsync; the change reaches the
		// user's other session and never echoes to the one that made it.
		{name: "durable journaled success", req: protocol.Request{ID: 77, Op: protocol.OpMakeFile, Name: "f"},
			durable: true,
			prep: func(t *testing.T, e *stageEnv, sess *Session, req *protocol.Request) {
				inRoot(t, e, sess, req)
				e.open(t, 1, "peer")
			},
			want: stageWant{status: protocol.StatusOK, event: true, cost: ms + 5*ms,
				counts: stageCounts{count: 1, hist: 1, journaled: 1}, pushes: map[string]int{"peer": 1}}},
		// get_reusable_content misses and make_uploadjob opens the job:
		// nothing is linked, so nothing is journaled until the final part.
		// The request is an event like any other; the trace drops it.
		{name: "durable upload opens a job", req: protocol.Request{ID: 77, Op: protocol.OpPutContent, Name: "f", Hash: content, Size: 100},
			durable: true, prep: inNewFile,
			want: stageWant{status: protocol.StatusOK, event: true, cost: 2 * ms, counts: stageCounts{count: 1, hist: 1}}},
		// get_reusable_content hits and make_content links the file: one
		// journaled mutation and its fsync.
		{name: "durable dedup links content", req: protocol.Request{ID: 77, Op: protocol.OpPutContent, Name: "f", Hash: content, Size: 100},
			durable: true,
			prep: func(t *testing.T, e *stageEnv, sess *Session, req *protocol.Request) {
				first := protocol.Request{Op: protocol.OpPutContent, Name: "first", Hash: content, Size: 100}
				inNewFile(t, e, sess, &first)
				put, _ := e.srv.Handle(sess, &first, t0)
				e.srv.Handle(sess, &protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Size: 100, Final: true}, t0)
				inNewFile(t, e, sess, req)
			},
			want: stageWant{status: protocol.StatusOK, event: true, cost: 2*ms + 5*ms, counts: stageCounts{count: 1, hist: 1, journaled: 1}}},
		{name: "durable read", req: protocol.Request{ID: 77, Op: protocol.OpListVolumes}, durable: true,
			want: stageWant{status: protocol.StatusOK, event: true, cost: ms, counts: stageCounts{count: 1, hist: 1}}},
		{name: "retried success", req: protocol.Request{ID: 77, Op: protocol.OpPing, Attempt: 1},
			want: stageWant{status: protocol.StatusOK, event: true, counts: stageCounts{count: 1, hist: 1, retried: 1, retriedOK: 1}}},
		{name: "retried failure", req: protocol.Request{ID: 77, Op: protocol.OpGetContent, Node: 99, Attempt: 2},
			want: stageWant{status: protocol.StatusNotFound, event: true, cost: ms, counts: stageCounts{count: 1, errors: 1, hist: 1, retried: 1}}},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store := metadata.Config{Shards: 4}
			if row.durable {
				store.Durability, store.FS = "/u1", vfs.NewMemFS()
			}
			e := newStageEnv(store, row.cfg, row.deps)
			t.Cleanup(func() { e.store.Close() })
			var sess *Session
			if !row.noSession {
				sess = e.open(t, 1, "origin")
			}
			req := row.req
			if row.prep != nil {
				row.prep(t, e, sess, &req)
			}
			before := e.counts(req.Op)
			e.events = e.events[:0]

			var resp *protocol.Response
			var cost time.Duration
			switch row.via {
			case viaOpen:
				token, err := e.auth.Issue(3)
				if err != nil {
					t.Fatal(err)
				}
				_, resp, cost = e.srv.OpenSession(token, nil, t0)
			case viaProbe:
				resp, cost = handleWithProbe(e.srv, sess, &req, func() bool { return true })
			default:
				resp, cost = e.srv.Handle(sess, &req, t0)
			}

			w := row.want
			if resp.Status != w.status || resp.ID != req.ID {
				t.Errorf("answer = status %v id %d, want %v id %d", resp.Status, resp.ID, w.status, req.ID)
			}
			if cost != w.cost {
				t.Errorf("cost = %v, want %v", cost, w.cost)
			}
			switch {
			case !w.event && len(e.events) != 0:
				t.Errorf("emitted %d events, want none", len(e.events))
			case w.event && len(e.events) != 1:
				t.Errorf("emitted %d events, want 1", len(e.events))
			case w.event && (e.events[0].Op != req.Op || e.events[0].Status != w.status || e.events[0].Duration != w.cost):
				t.Errorf("event = op %v status %v duration %v, want %v %v %v",
					e.events[0].Op, e.events[0].Status, e.events[0].Duration, req.Op, w.status, w.cost)
			}
			if got := e.counts(req.Op).minus(before); got != w.counts {
				t.Errorf("counters moved %+v, want %+v", got, w.counts)
			}
			got := map[string]int{}
			for label, l := range e.pushes {
				if len(*l) > 0 {
					got[label] = len(*l)
				}
			}
			if w.pushes == nil {
				w.pushes = map[string]int{}
			}
			if !reflect.DeepEqual(got, w.pushes) {
				t.Errorf("pushes = %v, want %v", got, w.pushes)
			}
		})
	}
}

// TestFinalPartEventCarriesSyncCost requires the event a final part emits,
// on a store that journals with per-op fsync, to carry the whole upload and
// to last exactly what the part's api.op.PutPart.seconds observation
// recorded: the journal's sync charge included.
func TestFinalPartEventCarriesSyncCost(t *testing.T) {
	e := newStageEnv(metadata.Config{Shards: 4, Durability: "/u1", FS: vfs.NewMemFS()}, Config{}, Deps{})
	t.Cleanup(func() { e.store.Close() })
	sess := e.open(t, 1, "origin")
	root := e.rootOf(t, sess)
	mk, _ := e.srv.Handle(sess, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "f.txt"}, t0)
	h := protocol.HashBytes([]byte("f"))
	put, _ := e.srv.Handle(sess, &protocol.Request{Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: "f.txt", Hash: h, Size: 100}, t0)
	e.events = e.events[:0]
	resp, cost := e.srv.Handle(sess, &protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Size: 100, Final: true}, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("final part: %v", resp.Status)
	}
	recorded := e.reg.Snapshot().Histogram(metrics.APIOp(protocol.OpPutPart.String()).Seconds)
	if recorded.Count != 1 || recorded.Sum != cost.Seconds() {
		t.Fatalf("PutPart recorded %d observations summing %gs, want one of %v", recorded.Count, recorded.Sum, cost)
	}
	if len(e.events) != 1 {
		t.Fatalf("emitted %d events, want 1", len(e.events))
	}
	want := Event{
		Server: "m", Proc: sess.Proc, Session: sess.ID, User: 1, Op: protocol.OpPutPart,
		Volume: root, Node: mk.Node.ID, Hash: h, Size: 100, Wire: 100, Ext: extOf("f.txt"),
		Start: t0, Duration: cost, Status: protocol.StatusOK, Upload: put.Upload, Final: true,
	}
	if got := e.events[0]; got != want {
		t.Errorf("final part's event\n  got  %+v\n  want %+v", got, want)
	}
}

// TestEveryAnsweredRequestEmittedOnce scripts one session through every kind
// of answer: a job upload and its parts, a dedup hit, a download and a part
// fetch, a request its handler refuses, an injected fault and a shed
// request. Each must reach the observers exactly once, as its own op, and
// the per-op series must count exactly the events seen. What is not a
// request, one without a session or a second close, reaches neither.
func TestEveryAnsweredRequestEmittedOnce(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: map[protocol.Op]faults.Rule{protocol.OpMove: {Fraction: 1}}}
	e := newStageEnv(metadata.Config{Shards: 4}, Config{Faults: plan, AdmitWatermark: 2}, Deps{})
	before := e.reg.Snapshot()
	sess := e.open(t, 1, "origin")
	// Steps lie past each other's admission window; a burst shares one
	// instant, so its third data request is shed.
	step := 0
	next := func() time.Time { step++; return t0.Add(time.Duration(step) * 2 * faults.AdmissionWindow) }
	ask := func(req protocol.Request, at time.Time, want protocol.Status) *protocol.Response {
		t.Helper()
		n := len(e.events)
		resp, _ := e.srv.Handle(sess, &req, at)
		if resp.Status != want {
			t.Errorf("%v answered %v, want %v", req.Op, resp.Status, want)
		}
		if len(e.events) != n+1 || e.events[n].Op != req.Op {
			t.Errorf("%v reached the observers as %v", req.Op, e.events[n:])
		}
		return resp
	}
	ok := protocol.StatusOK

	root := ask(protocol.Request{Op: protocol.OpListVolumes}, next(), ok).Volumes[0].ID
	a := ask(protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "a.iso"}, next(), ok).Node.ID
	b := ask(protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "b.iso"}, next(), ok).Node.ID
	h := protocol.HashBytes([]byte("iso"))
	put := ask(protocol.Request{Op: protocol.OpPutContent, Volume: root, Node: a, Name: "a.iso", Hash: h, Size: 2*blob.PartSize + 10}, next(), ok)
	ask(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 0, Size: blob.PartSize}, next(), ok)
	ask(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 1, Size: blob.PartSize}, next(), ok)
	ask(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 2, Size: 10, Final: true}, next(), ok)
	if dedup := ask(protocol.Request{Op: protocol.OpPutContent, Volume: root, Node: b, Name: "b.iso", Hash: h, Size: 2*blob.PartSize + 10}, next(), ok); !dedup.Reused {
		t.Error("the second put of the same content was no dedup hit")
	}
	ask(protocol.Request{Op: protocol.OpGetContent, Volume: root, Node: a}, next(), ok)
	ask(protocol.Request{Op: protocol.OpGetPart, Volume: root, Node: a, Part: 0}, next(), ok)
	ask(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Size: 10, Final: true}, next(), protocol.StatusNotFound)
	ask(protocol.Request{Op: protocol.OpMove, Volume: root, Node: a, Name: "c.iso"}, next(), protocol.StatusUnavailable)
	burst := next()
	ask(protocol.Request{Op: protocol.OpGetPart, Volume: root, Node: a, Part: 1}, burst, ok)
	ask(protocol.Request{Op: protocol.OpGetPart, Volume: root, Node: a, Part: 2}, burst, ok)
	ask(protocol.Request{Op: protocol.OpGetContent, Volume: root, Node: a}, burst, protocol.StatusOverloaded)

	n := len(e.events)
	e.srv.Handle(nil, &protocol.Request{Op: protocol.OpPing}, next())
	e.srv.CloseSession(sess, next())
	e.srv.CloseSession(sess, next())
	if got := len(e.events) - n; got != 1 {
		t.Errorf("a sessionless request and two closes emitted %d events, want the first close's", got)
	}

	type tally struct{ count, errors, hist uint64 }
	want := make(map[protocol.Op]tally)
	refused := 0
	for _, ev := range e.events {
		w := want[ev.Op]
		w.count++
		if ev.Status != protocol.StatusOK {
			w.errors++
		}
		if ev.refused {
			refused++
		} else {
			w.hist++
		}
		want[ev.Op] = w
	}
	if refused != 2 {
		t.Errorf("%d events marked refused, want the injected and the shed one", refused)
	}
	after := e.reg.Snapshot()
	for _, op := range protocol.Ops() {
		series := metrics.APIOp(op.String())
		got := tally{
			after.Counter(series.Count) - before.Counter(series.Count),
			after.Counter(series.Errors) - before.Counter(series.Errors),
			after.Histogram(series.Seconds).Count - before.Histogram(series.Seconds).Count,
		}
		if got != want[op] {
			t.Errorf("%v series moved %+v, events say %+v", op, got, want[op])
		}
	}
	machine := metrics.APIServerOps("m")
	if got := after.Counter(machine) - before.Counter(machine); got != uint64(len(e.events)) {
		t.Errorf("api.server.m.ops moved %d for %d events", got, len(e.events))
	}
}

// TestAdmissionNeverShedsClose: a burst past every watermark sheds the
// session's requests but never its close. Both transports forget a session
// before closing it, so a shed close would leave it live for good.
func TestAdmissionNeverShedsClose(t *testing.T) {
	e := newStageEnv(metadata.Config{Shards: 4}, Config{AdmitWatermark: 1}, Deps{})
	sess := e.open(t, 1, "origin")
	for i := 0; i < 20; i++ {
		e.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing}, t0)
	}
	if shed := e.reg.Snapshot().Counter(metrics.FaultsShed); shed == 0 {
		t.Fatal("the burst shed nothing; the watermark was never reached")
	}
	e.srv.CloseSession(sess, t0)
	if n := e.srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions live after the close", n)
	}
	if n := e.reg.Snapshot().Gauge(metrics.APISessionsActive); n != 0 {
		t.Errorf("api.sessions.active = %d after the close, want 0", n)
	}
}
