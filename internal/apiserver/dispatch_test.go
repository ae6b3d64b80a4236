package apiserver

import (
	"sync"
	"testing"
	"time"

	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
)

// TestEveryOpHasRegisteredHandler pins the dispatch-table invariant: all of
// Table 2's operations — including the session lifecycle ops — resolve to a
// registered handler, so no op silently falls through to the bad-request
// default.
func TestEveryOpHasRegisteredHandler(t *testing.T) {
	f := newFixture(t)
	for _, op := range protocol.Ops() {
		if int(op) >= len(f.srv.handlers) || f.srv.handlers[op] == nil {
			t.Errorf("op %v has no registered handler", op)
		}
	}
	if len(f.srv.handlers) != len(protocol.Ops()) {
		t.Errorf("handler table has %d slots for %d ops", len(f.srv.handlers), len(protocol.Ops()))
	}
}

// TestUnknownOpTableDefault covers the table default: operations outside the
// registered vocabulary fail uniformly with StatusBadRequest, both just past
// the table edge and far outside it.
func TestUnknownOpTableDefault(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 31)
	for _, op := range []protocol.Op{protocol.Op(len(protocol.Ops())), protocol.Op(200), protocol.Op(255)} {
		resp, _ := f.srv.Handle(sess, &protocol.Request{ID: 7, Op: op}, t0)
		if resp.Status != protocol.StatusBadRequest {
			t.Errorf("op %d: status = %v, want bad request", op, resp.Status)
		}
		if resp.ID != 7 {
			t.Errorf("op %d: correlation id = %d, want 7", op, resp.ID)
		}
	}
}

// TestUniformErrorStatusMapping substitutes a failing stub for every
// registered op and checks that dispatch translates each
// sentinel error identically regardless of which operation raised it — the
// property the old per-arm StatusOf calls only upheld by convention.
func TestUniformErrorStatusMapping(t *testing.T) {
	sentinels := map[error]protocol.Status{
		protocol.ErrAuthFailed:  protocol.StatusAuthFailed,
		protocol.ErrNotFound:    protocol.StatusNotFound,
		protocol.ErrExists:      protocol.StatusExists,
		protocol.ErrPermission:  protocol.StatusPermission,
		protocol.ErrBadRequest:  protocol.StatusBadRequest,
		protocol.ErrUnavailable: protocol.StatusUnavailable,
		protocol.ErrConflict:    protocol.StatusConflict,
		protocol.ErrQuota:       protocol.StatusQuota,
		protocol.ErrCancelled:   protocol.StatusCancelled,
		protocol.ErrOverloaded:  protocol.StatusOverloaded,
	}
	f := newFixture(t)
	sess := f.session(t, 32)
	for err, want := range sentinels {
		err := err
		for _, op := range protocol.Ops() {
			f.srv.handlers[op] = func(*OpContext) (*protocol.Response, error) {
				return nil, err
			}
			resp, _ := f.srv.Handle(sess, &protocol.Request{ID: 42, Op: op}, t0)
			if resp.Status != want {
				t.Errorf("op %v, err %v: status = %v, want %v", op, err, resp.Status, want)
			}
			if resp.ID != 42 {
				t.Errorf("op %v: failure response lost correlation id", op)
			}
		}
	}
}

// TestHandleChargesCostUniformly checks the cost plumbing end to end: the
// duration Handle returns is the accumulated RPC cost, and the same total
// reaches the emitted trace event — no handler threads durations by hand
// anymore.
func TestHandleChargesCostUniformly(t *testing.T) {
	f := newFixture(t)
	var events []Event
	f.srv.AddObserver(func(e Event) { events = append(events, e) })
	sess := f.session(t, 33)

	resp, d := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if d <= 0 {
		t.Error("ListVolumes must charge its RPC service time")
	}
	last := events[len(events)-1]
	if last.Op != protocol.OpListVolumes || last.Duration != d {
		t.Errorf("event duration %v != handle duration %v", last.Duration, d)
	}
}

// TestAuthenticateViaHandleRejected pins the guard exception down to its
// one legitimate entry point: a raw Handle call cannot receive the created
// *Session, so admitting a sessionless Authenticate there would leak an
// uncloseable session and inflate the active-session gauge forever.
func TestAuthenticateViaHandleRejected(t *testing.T) {
	f := newFixture(t)
	token, _ := f.auth.Issue(30)
	resp, _ := f.srv.Handle(nil, &protocol.Request{Op: protocol.OpAuthenticate, Token: token}, t0)
	if resp.Status != protocol.StatusAuthFailed {
		t.Errorf("sessionless auth via Handle: status = %v, want auth failed", resp.Status)
	}
	if f.srv.SessionCount() != 0 {
		t.Errorf("sessionless auth via Handle leaked %d session(s)", f.srv.SessionCount())
	}
}

// TestAuthenticateOnLiveSessionRejected pins the protocol rule the table
// made reachable: re-authenticating an already authenticated connection is a
// bad request, not a second session.
func TestAuthenticateOnLiveSessionRejected(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 34)
	token, _ := f.auth.Issue(34)
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpAuthenticate, Token: token}, t0)
	if resp.Status != protocol.StatusBadRequest {
		t.Errorf("re-auth status = %v, want bad request", resp.Status)
	}
	if f.srv.SessionCount() != 1 {
		t.Errorf("re-auth changed session count to %d", f.srv.SessionCount())
	}
}

// TestCloseSessionThroughHandle exercises the close handler via plain
// dispatch (the table route), not just the CloseSession wrapper.
func TestCloseSessionThroughHandle(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 35)
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpCloseSession}, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("close status = %v", resp.Status)
	}
	if f.srv.SessionCount() != 0 {
		t.Error("session survived CloseSession dispatch")
	}
}

// TestDynamicAPIObserverAttach hammers Handle from several goroutines while
// observers attach mid-traffic; run under -race this pins the copy-on-write
// observer list of the API event path.
func TestDynamicAPIObserverAttach(t *testing.T) {
	f := newFixture(t)
	const workers, per = 4, 150
	var wg sync.WaitGroup
	sessions := make([]*Session, workers)
	for w := range sessions {
		sessions[w] = f.session(t, protocol.UserID(40+w))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing}, t0)
			}
		}(sessions[w])
	}
	var mu sync.Mutex
	var seen int
	for i := 0; i < 8; i++ {
		f.srv.AddObserver(func(Event) { mu.Lock(); seen++; mu.Unlock() })
	}
	wg.Wait()
	f.srv.Handle(sessions[0], &protocol.Request{Op: protocol.OpPing}, t0)
	mu.Lock()
	defer mu.Unlock()
	if seen == 0 {
		t.Error("observers attached mid-traffic saw no events")
	}
}

// handleWithProbe dispatches req with an abort probe, the way the TCP loop
// does.
func handleWithProbe(s *Server, sess *Session, req *protocol.Request, aborted func() bool) (*protocol.Response, time.Duration) {
	return s.handle(sess, req, t0, aborted)
}

// TestCancelDropsAbandonedWork pins the abort probe's contract: a
// request whose abort probe reports a dead client is dropped with
// StatusCancelled before the handler runs, charges no RPC cost, and keeps
// its correlation ID.
func TestCancelDropsAbandonedWork(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 60)
	var ran bool
	f.srv.handlers[protocol.OpListVolumes] = func(*OpContext) (*protocol.Response, error) {
		ran = true
		return &protocol.Response{Status: protocol.StatusOK}, nil
	}
	resp, d := f.srv.handle(sess, &protocol.Request{ID: 9, Op: protocol.OpListVolumes}, t0, func() bool { return true })
	if resp.Status != protocol.StatusCancelled {
		t.Errorf("status = %v, want cancelled", resp.Status)
	}
	if resp.ID != 9 {
		t.Errorf("cancelled response lost correlation id: %d", resp.ID)
	}
	if ran {
		t.Error("handler ran for an abandoned request")
	}
	if d != 0 {
		t.Errorf("cancelled request charged cost %v", d)
	}
}

// TestCancelledRequestStillObservable ensures dropped work is not invisible:
// the cancel happens before dispatch emits the event and records metrics, so
// the trace event and the per-op error counter both record the StatusCancelled
// outcome.
func TestCancelledRequestStillObservable(t *testing.T) {
	reg := metrics.NewRegistry()
	store := metadata.New(metadata.Config{Shards: 4})
	authSvc := auth.New(auth.Config{Seed: 1})
	srv := New(Config{Name: "m", Procs: 2}, Deps{
		RPC:      rpc.NewServer(store, rpc.Config{Seed: 1, Metrics: reg}),
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
		Metrics:  reg,
	})
	token, err := authSvc.Issue(62)
	if err != nil {
		t.Fatal(err)
	}
	sess, resp, _ := srv.OpenSession(token, nil, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("open session: %v", resp.Status)
	}
	var events []Event
	srv.AddObserver(func(e Event) { events = append(events, e) })
	srv.handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0, func() bool { return true })
	if len(events) == 0 {
		t.Fatal("cancelled request emitted no trace event")
	}
	last := events[len(events)-1]
	if last.Status != protocol.StatusCancelled {
		t.Errorf("event status = %v, want cancelled", last.Status)
	}
	snap := reg.Snapshot()
	if snap.Counter(metrics.APIOp("ListVolumes").Errors) == 0 {
		t.Error("cancelled request not counted as a ListVolumes error")
	}
}

// TestCancelViaCancelingInterceptor drives cancellation with a probe that
// flips to aborted only after the first request, proving the decision is
// re-evaluated per dispatch.
func TestCancelViaCancelingInterceptor(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 63)
	var calls int
	probe := func() bool {
		calls++
		return calls > 1 // first request admitted, second aborted
	}
	resp, _ := f.srv.handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0, probe)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("first request: status = %v", resp.Status)
	}
	resp, _ = f.srv.handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0, probe)
	if resp.Status != protocol.StatusCancelled {
		t.Fatalf("second request: status = %v, want cancelled", resp.Status)
	}
}
