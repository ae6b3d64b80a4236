package apiserver

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"u1/internal/protocol"
)

// poolsKeep reports whether a sync.Pool hands back what was just put into
// it. It does, except under the race detector, which drops a quarter of all
// puts on purpose: there every pooled slot shows up as allocations and a
// count of them means nothing.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if got, _ := p.Get().(*int); got != x {
			return false
		}
	}
	return true
}

// TestAnswersCostNoAllocation is the server-side guard of the recycled
// response: a request whose caller gives the response back allocates nothing
// for its answer, whether a handler built it, fail did, or a handler gave up
// half-way. A path that stranded an acquired response would drain the
// recycler and show here as one allocation a call. (AllocsPerRun reports an
// integer average, so a pooled slot lost to a GC cycle does not register.)
func TestAnswersCostNoAllocation(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on): pooled slots count as allocations")
	}
	f := newFixture(t)
	sess := f.session(t, 81)
	root := f.rootOf(t, sess)

	// A file whose content the data store does not hold: get_node succeeds
	// and the data-store read fails, the path that used to leave a built
	// response behind.
	node, err := f.store.MakeFile(81, root, 0, "lost.txt")
	if err != nil {
		t.Fatal(err)
	}
	lost := protocol.HashBytes([]byte("lost"))
	if _, _, _, err := f.store.MakeContent(81, root, node.ID, lost, 4); err != nil {
		t.Fatal(err)
	}
	// The data store words its error afresh every time; the answer must add
	// nothing to that.
	storeErr := testing.AllocsPerRun(200, func() { f.blob.HeadHash(lost) }) //nolint:errcheck

	cases := []struct {
		name   string
		sess   *Session
		req    protocol.Request
		want   protocol.Status
		allocs float64
	}{
		{"a handler's answer", sess, protocol.Request{Op: protocol.OpPing}, protocol.StatusOK, 0},
		{"a refusal before the handler", nil, protocol.Request{Op: protocol.OpPing}, protocol.StatusAuthFailed, 0},
		{"an op outside the table", sess, protocol.Request{Op: protocol.Op(200)}, protocol.StatusBadRequest, 0},
		{"a download whose content is gone", sess,
			protocol.Request{Op: protocol.OpGetContent, Volume: root, Node: node.ID}, protocol.StatusUnavailable, storeErr},
	}
	for _, tc := range cases {
		req := tc.req
		allocs := testing.AllocsPerRun(200, func() {
			resp, _ := f.srv.Handle(tc.sess, &req, t0)
			if resp.Status != tc.want {
				t.Fatalf("%s: status = %v, want %v", tc.name, resp.Status, tc.want)
			}
			protocol.ReleaseResponse(resp)
		})
		if allocs != tc.allocs {
			t.Errorf("%s allocates %.0f times a call, want %.0f", tc.name, allocs, tc.allocs)
		}
	}
}

// TestStatusMapReleasesWhatItReplaces pins the one place a response changes
// hands inside dispatch: a handler that returns a response together with an
// error has its response replaced by the failure answer, and the replaced
// one goes back to the recycler — wiped — rather than to the collector.
func TestStatusMapReleasesWhatItReplaces(t *testing.T) {
	f := newFixture(t)
	sess := f.session(t, 82)
	var built *protocol.Response
	f.srv.handlers[protocol.OpMove] = func(*OpContext) (*protocol.Response, error) {
		built = okResponse()
		built.Generation = 9
		return built, protocol.ErrConflict
	}
	resp, _ := f.srv.Handle(sess, &protocol.Request{ID: 5, Op: protocol.OpMove}, t0)
	if resp.ID != 5 || resp.Status != protocol.StatusConflict || resp.Generation != 0 {
		t.Fatalf("answer = %+v", resp)
	}
	if resp != built && !reflect.DeepEqual(*built, protocol.Response{}) {
		t.Errorf("the replaced response was not released: %+v", *built)
	}
}

// TestReleasedOpContextIsZero pins the invariant initOpContext relies on:
// every context that goes back to the pool equals OpContext{pending:
// c.pending[:0]}, whichever way its request went. Two GC cycles empty the
// pool (the first moves its contents to the victim cache, the second drops
// them), and from then on every context the server uses is one the pool's
// New made, which the test keeps and inspects after each request.
func TestReleasedOpContextIsZero(t *testing.T) {
	var made []*OpContext
	newCtx := opCtxPool.New
	opCtxPool.New = func() any {
		c := new(OpContext)
		made = append(made, c)
		return c
	}
	t.Cleanup(func() { opCtxPool.New = newCtx })
	runtime.GC()
	runtime.GC()

	f := newFixture(t)
	shedding, _ := newFaultFixture(t, nil, 1)
	var sess *Session
	handle := func(srv *Server, sess *Session, req protocol.Request, aborted func() bool, want protocol.Status) {
		t.Helper()
		resp, _ := srv.handle(sess, &req, t0, aborted)
		if resp.Status != want {
			t.Fatalf("%v: status = %v, want %v", req.Op, resp.Status, want)
		}
		protocol.ReleaseResponse(resp)
	}
	cases := []struct {
		name string
		do   func()
	}{
		{"OpenSession", func() { sess = f.session(t, 91) }},
		{"a commit that queues a push", func() {
			handle(f.srv, sess, protocol.Request{Op: protocol.OpMakeDir, Volume: f.rootOf(t, sess), Name: "d"}, nil, protocol.StatusOK)
		}},
		{"a request refused by admission", func() {
			shed := shedding.session(t, 92)
			handle(shedding.srv, shed, protocol.Request{Op: protocol.OpGetContent, Node: 1}, nil, protocol.StatusNotFound)
			handle(shedding.srv, shed, protocol.Request{Op: protocol.OpGetContent, Node: 1}, nil, protocol.StatusOverloaded)
		}},
		{"a TCP-aborted request", func() {
			handle(f.srv, sess, protocol.Request{Op: protocol.OpListVolumes}, func() bool { return true }, protocol.StatusCancelled)
		}},
		{"CloseSession", func() { f.srv.CloseSession(sess, t0) }},
	}
	for _, tc := range cases {
		tc.do()
		if len(made) == 0 {
			t.Fatalf("after %s: no context came from the pool's New", tc.name)
		}
		for i, c := range made {
			if want := (OpContext{pending: c.pending[:0]}); !reflect.DeepEqual(*c, want) {
				t.Errorf("after %s: released context %d = %+v, want zero but its pending slice", tc.name, i, *c)
			}
		}
	}
}
