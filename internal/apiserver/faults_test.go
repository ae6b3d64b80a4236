package apiserver

import (
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
)

// newFaultFixture builds a server with a metrics registry plus the given
// fault plan and admission watermark.
func newFaultFixture(t *testing.T, plan *faults.Plan, watermark int) (*fixture, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	f := &fixture{
		store:  metadata.New(metadata.Config{Shards: 4}),
		blob:   blob.New(blob.Config{}),
		auth:   auth.New(auth.Config{Seed: 1}),
		broker: notify.NewBroker(),
	}
	f.srv = New(Config{Name: "m", Procs: 2, Faults: plan, AdmitWatermark: watermark}, Deps{
		RPC:      rpc.NewServer(f.store, rpc.Config{Seed: 1, Metrics: reg}),
		Auth:     f.auth,
		Blob:     f.blob,
		Broker:   f.broker,
		Transfer: blob.DefaultTransferModel(),
		Metrics:  reg,
	})
	return f, reg
}

// TestInjectFailsConfiguredOpOnly pins the fault injector: an op with
// Fraction 1 always fails with the configured status, other ops are
// untouched, and the failure is observable — error counter up, trace event
// carrying the status — without contaminating the latency histogram.
func TestInjectFailsConfiguredOpOnly(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: map[protocol.Op]faults.Rule{
		protocol.OpPing: {Fraction: 1, Status: protocol.StatusUnavailable},
	}}
	f, reg := newFaultFixture(t, plan, 0)
	var events []Event
	f.srv.AddObserver(func(e Event) { events = append(events, e) })
	sess := f.session(t, 1)

	resp, d := f.srv.Handle(sess, &protocol.Request{ID: 5, Op: protocol.OpPing}, t0)
	if resp.Status != protocol.StatusUnavailable {
		t.Fatalf("injected ping status = %v, want unavailable", resp.Status)
	}
	if resp.ID != 5 {
		t.Errorf("injected failure lost correlation id: %d", resp.ID)
	}
	if d != 0 {
		t.Errorf("injected failure charged cost %v; it must preempt the handler", d)
	}
	last := events[len(events)-1]
	if last.Op != protocol.OpPing || last.Status != protocol.StatusUnavailable {
		t.Errorf("event = op %v status %v, want injected ping failure", last.Op, last.Status)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(metrics.APIOp("Ping").Errors); got != 1 {
		t.Errorf("api.op.Ping.errors = %d, want 1", got)
	}
	if got := snap.Counter(metrics.FaultsInjected); got != 1 {
		t.Errorf("faults.injected = %d, want 1", got)
	}
	if hist := snap.Histogram(metrics.APIOp("Ping").Seconds); hist.Count != 0 {
		t.Errorf("injected failure entered the latency histogram (count %d)", hist.Count)
	}

	// Ops outside the plan proceed normally.
	resp, _ = f.srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
	if resp.Status != protocol.StatusOK {
		t.Errorf("unplanned op failed: %v", resp.Status)
	}
}

// TestInjectDeterministicAcrossServers pins the purity contract: two servers
// built from the same plan make identical decisions for the same
// (user, op, now), because nothing about injection depends on server state.
func TestInjectDeterministicAcrossServers(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Rules: map[protocol.Op]faults.Rule{
		protocol.OpListVolumes: {Fraction: 0.5},
	}}
	fa, _ := newFaultFixture(t, plan, 0)
	fb, _ := newFaultFixture(t, plan, 0)
	sa := fa.session(t, 9)
	sb := fb.session(t, 9)
	for i := 0; i < 200; i++ {
		now := t0.Add(time.Duration(i) * 13 * time.Second)
		ra, _ := fa.srv.Handle(sa, &protocol.Request{Op: protocol.OpListVolumes}, now)
		rb, _ := fb.srv.Handle(sb, &protocol.Request{Op: protocol.OpListVolumes}, now)
		if ra.Status != rb.Status {
			t.Fatalf("at %v: server A %v, server B %v", now, ra.Status, rb.Status)
		}
	}
}

// TestNilAndZeroPlanInjectNothing pins behavior preservation: a nil plan and
// a zero-value plan leave every request untouched.
func TestNilAndZeroPlanInjectNothing(t *testing.T) {
	for name, plan := range map[string]*faults.Plan{"nil": nil, "zero": {}} {
		f, reg := newFaultFixture(t, plan, 0)
		sess := f.session(t, 2)
		for i := 0; i < 50; i++ {
			resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing},
				t0.Add(time.Duration(i)*time.Second))
			if resp.Status != protocol.StatusOK {
				t.Fatalf("%s plan: ping %d failed with %v", name, i, resp.Status)
			}
		}
		if got := reg.Snapshot().Counter(metrics.FaultsInjected); got != 0 {
			t.Errorf("%s plan injected %d failures", name, got)
		}
	}
}

// TestAdmitShedsByClass walks the watermark ladder at one virtual instant:
// with watermark 1, the second data op is shed, metadata survives to 2x,
// session management to 4x — and the shed ops are observable (StatusOverloaded
// wire status, error counters, faults.shed) without entering the latency
// histogram.
func TestAdmitShedsByClass(t *testing.T) {
	f, reg := newFaultFixture(t, nil, 1)
	sess := f.session(t, 3)
	do := func(op protocol.Op) protocol.Status {
		resp, _ := f.srv.Handle(sess, &protocol.Request{Op: op, Node: 1}, t0)
		return resp.Status
	}

	if st := do(protocol.OpGetContent); st == protocol.StatusOverloaded { // load 0→1
		t.Fatalf("first data op shed: %v", st)
	}
	if st := do(protocol.OpGetContent); st != protocol.StatusOverloaded { // load 1 ≥ 1
		t.Fatalf("second data op not shed: %v", st)
	}
	if st := do(protocol.OpListVolumes); st != protocol.StatusOK { // load 1 < 2
		t.Fatalf("metadata op shed below its threshold: %v", st)
	}
	if st := do(protocol.OpListVolumes); st != protocol.StatusOverloaded { // load 2 ≥ 2
		t.Fatalf("metadata op not shed at 2x: %v", st)
	}
	if st := do(protocol.OpPing); st != protocol.StatusOK { // load 2 < 4
		t.Fatalf("session op shed below its threshold: %v", st)
	}
	if st := do(protocol.OpPing); st != protocol.StatusOK { // load 3 < 4
		t.Fatalf("session op shed below its threshold: %v", st)
	}
	if st := do(protocol.OpPing); st != protocol.StatusOverloaded { // load 4 ≥ 4
		t.Fatalf("session op not shed at 4x: %v", st)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(metrics.FaultsShed); got != 3 {
		t.Errorf("faults.shed = %d, want 3", got)
	}
	if got := snap.Counter(metrics.APIOp("Download").Errors); got != 2 {
		t.Errorf("api.op.Download.errors = %d, want 2 (the NotFound and the shed one)", got)
	}
	// The one admitted download failed NotFound inside the handler (node 1
	// does not exist) and so carries a real duration; the shed one must not
	// have added a second histogram sample.
	if hist := snap.Histogram(metrics.APIOp("Download").Seconds); hist.Count != 1 {
		t.Errorf("Download latency samples = %d, want 1 (shed op excluded)", hist.Count)
	}

	// The window slides: past AdmissionWindow the storm is forgotten.
	later := t0.Add(faults.AdmissionWindow + time.Second)
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpGetContent, Node: 1}, later)
	if resp.Status == protocol.StatusOverloaded {
		t.Error("data op still shed after the accounting window expired")
	}
}

// TestAdmitNeverShedsAuthentication pins the admission scope: OpenSession
// has no API process before its handler runs, so an overloaded machine still
// authenticates (auth storms are the SSO tier's problem, not the data
// path's).
func TestAdmitNeverShedsAuthentication(t *testing.T) {
	f, _ := newFaultFixture(t, nil, 1)
	sess := f.session(t, 4)
	// Saturate both procs' windows far past every class threshold.
	for i := 0; i < 16; i++ {
		f.srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
	}
	token, err := f.auth.Issue(5)
	if err != nil {
		t.Fatal(err)
	}
	sess2, resp, _ := f.srv.OpenSession(token, nil, t0)
	if resp.Status != protocol.StatusOK || sess2 == nil {
		t.Fatalf("authentication shed under overload: %v", resp.Status)
	}
}

// TestRetryCountersObserveAttempts pins the server-side retry accounting:
// requests carrying Attempt > 0 count as retried, and only the ones that
// come back clean count as retry successes.
func TestRetryCountersObserveAttempts(t *testing.T) {
	f, reg := newFaultFixture(t, nil, 0)
	sess := f.session(t, 6)
	// A successful retry.
	resp, _ := f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing, Attempt: 1}, t0)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("ping retry failed: %v", resp.Status)
	}
	// A failed retry (missing node).
	resp, _ = f.srv.Handle(sess, &protocol.Request{Op: protocol.OpGetContent, Node: 99, Attempt: 2}, t0)
	if resp.Status == protocol.StatusOK {
		t.Fatal("download of missing node succeeded")
	}
	// A first attempt is not retried traffic.
	f.srv.Handle(sess, &protocol.Request{Op: protocol.OpPing}, t0)

	snap := reg.Snapshot()
	if got := snap.Counter(metrics.FaultsRetried); got != 2 {
		t.Errorf("faults.retried = %d, want 2", got)
	}
	if got := snap.Counter(metrics.FaultsRetrySucceeded); got != 1 {
		t.Errorf("faults.retry_succeeded = %d, want 1", got)
	}
}

// TestCancelledExcludedFromLatencyHistogram extends the cancellation
// observability contract: the cancelled op keeps its error counter and trace
// event (pinned elsewhere) but its zero duration stays out of the
// percentiles.
func TestCancelledExcludedFromLatencyHistogram(t *testing.T) {
	f, reg := newFaultFixture(t, nil, 0)
	sess := f.session(t, 8)
	f.srv.handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0, func() bool { return true })
	snap := reg.Snapshot()
	if got := snap.Counter(metrics.APIOp("ListVolumes").Errors); got != 1 {
		t.Errorf("api.op.ListVolumes.errors = %d, want 1", got)
	}
	if hist := snap.Histogram(metrics.APIOp("ListVolumes").Seconds); hist.Count != 0 {
		t.Errorf("cancelled op entered the latency histogram (count %d)", hist.Count)
	}
}
