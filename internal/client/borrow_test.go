package client

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"u1/internal/protocol"
)

// TestRetainedRequestIsWipedAfterDo pins the lender's half of the contract:
// a request is only lent while Do runs, so a transport that (wrongly) keeps
// the pointer finds it zeroed — not some later caller's request — once the
// client call has returned.
func TestRetainedRequestIsWipedAfterDo(t *testing.T) {
	// The transport breaks the Transport.Do contract on purpose: it keeps
	// every request it is lent (tr.reqs holds what each read while Do ran).
	var kept []*protocol.Request
	tr := &scriptedTransport{serve: func(_ int, req *protocol.Request) protocol.Status {
		kept = append(kept, req)
		return protocol.StatusOK
	}}
	cli := New(tr)
	if err := cli.Connect("token"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Mkdir(7, 3, "docs"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Disconnect(); err != nil {
		t.Fatal(err)
	}
	wantOps := []protocol.Op{protocol.OpAuthenticate, protocol.OpListVolumes,
		protocol.OpListShares, protocol.OpMakeDir, protocol.OpCloseSession}
	if len(tr.reqs) != len(wantOps) {
		t.Fatalf("transport saw %d requests, want %d", len(tr.reqs), len(wantOps))
	}
	for i, op := range wantOps {
		if tr.reqs[i].Op != op {
			t.Errorf("request %d was %v during Do, want %v", i, tr.reqs[i].Op, op)
		}
		if !reflect.DeepEqual(*kept[i], protocol.Request{}) {
			t.Errorf("request %d (%v) still reads %+v after Do returned", i, op, *kept[i])
		}
	}
	if mk := tr.reqs[3]; mk.Volume != 7 || mk.Parent != 3 || mk.Name != "docs" {
		t.Errorf("MakeDir went out as %+v", mk)
	}
}

// scribbling returns a transport that overwrites every request it is lent
// before answering (a transport may stamp a borrowed request) and fails the
// first attempts with a retryable status.
func scribbling(failFirst int) *scriptedTransport {
	return &scriptedTransport{serve: func(i int, req *protocol.Request) protocol.Status {
		*req = protocol.Request{ID: 99, Op: protocol.OpUnlink, Volume: 666, Name: "scribble", Attempt: 200}
		if i < failFirst {
			return protocol.StatusOverloaded
		}
		return protocol.StatusOK
	}}
}

// TestClientNeverReadsARequestItHandedOver pins the borrower-facing half:
// once a request has been lent the client takes nothing from it again. A
// retry is rebuilt from the caller's own value, and the final error names
// the operation the caller asked for, whatever the transport left behind.
func TestClientNeverReadsARequestItHandedOver(t *testing.T) {
	tr := scribbling(2)
	cli := New(tr)
	cli.Retry = Retry{Max: 3, Backoff: time.Second}
	if _, err := cli.Move(7, 11, 3, "renamed"); err != nil {
		t.Fatalf("move should succeed on the third attempt: %v", err)
	}
	if len(tr.reqs) != 3 {
		t.Fatalf("attempts = %d, want 3", len(tr.reqs))
	}
	for i, req := range tr.reqs {
		want := protocol.Request{Op: protocol.OpMove, Volume: 7, Node: 11, Parent: 3, Name: "renamed",
			Attempt: uint8(i), Delay: req.Delay}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("attempt %d went out as %+v, want %+v", i, req, want)
		}
	}

	tr = scribbling(1)
	cli = New(tr)
	err := cli.Ping()
	if err == nil || !strings.Contains(err.Error(), protocol.OpPing.String()) {
		t.Errorf("error = %v, want it to name %v", err, protocol.OpPing)
	}
}

// echoTransport answers with the volume it was asked about, after looking at
// the request twice with a yield in between.
type echoTransport struct{ t *testing.T }

func (e echoTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	vol := req.Volume
	runtime.Gosched()
	if req.Volume != vol || req.Op != protocol.OpDeleteVolume {
		e.t.Errorf("request changed under Do: %+v", *req)
	}
	return &protocol.Response{Status: protocol.StatusOK, Generation: protocol.Generation(vol)}, nil
}
func (echoTransport) Pushes() <-chan *protocol.Push { return nil }
func (echoTransport) Close() error                  { return nil }

// TestLentRequestsAreNotSharedBetweenCalls drives one client from several
// goroutines: every in-flight call must hold a request slot of its own. The
// race job is what gives this test its teeth.
func TestLentRequestsAreNotSharedBetweenCalls(t *testing.T) {
	cli := New(echoTransport{t})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				vol := protocol.VolumeID(g*1000 + i)
				resp, err := cli.do(protocol.Request{Op: protocol.OpDeleteVolume, Volume: vol})
				if err != nil || resp.Generation != protocol.Generation(vol) {
					t.Errorf("call for volume %d answered %+v, %v", vol, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// cannedTransport answers every request with one preallocated response.
type cannedTransport struct{ resp protocol.Response }

func (c *cannedTransport) Do(*protocol.Request) (*protocol.Response, error) { return &c.resp, nil }
func (c *cannedTransport) Pushes() <-chan *protocol.Push                    { return nil }
func (c *cannedTransport) Close() error                                     { return nil }

// TestMetadataCallAllocatesOnlyTheResponse is the allocation guard of the
// borrowed-request path: the client side of a call allocates nothing, and
// over DirectTransport the whole call allocates the one Response the
// Transport API hands back. (AllocsPerRun reports an integer average, so a
// pooled slot lost to a GC cycle mid-measurement does not register.)
func TestMetadataCallAllocatesOnlyTheResponse(t *testing.T) {
	canned := New(&cannedTransport{resp: protocol.Response{Status: protocol.StatusOK}})
	if allocs := testing.AllocsPerRun(200, func() { canned.Ping() }); allocs != 0 { //nolint:errcheck
		t.Errorf("client side of a call allocates %.0f times, want 0", allocs)
	}

	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 1)
	defer cli.Close()
	if allocs := testing.AllocsPerRun(200, func() { cli.Ping() }); allocs > 1 { //nolint:errcheck
		t.Errorf("a Ping over DirectTransport allocates %.0f times, want 1 (the Response)", allocs)
	}
}
