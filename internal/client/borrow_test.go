package client

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

// echoTransport answers with the volume it was asked about, in a response
// from the recycler, after looking at the request twice with a yield in
// between.
type echoTransport struct{ t *testing.T }

func (e echoTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	vol := req.Volume
	runtime.Gosched()
	if req.Volume != vol || req.Op != protocol.OpDeleteVolume {
		e.t.Errorf("request changed under Do: %+v", *req)
	}
	resp := protocol.AcquireResponse()
	resp.Status, resp.Generation = protocol.StatusOK, protocol.Generation(vol)
	return resp, nil
}
func (echoTransport) Pushes() <-chan *protocol.Push { return nil }
func (echoTransport) Close() error                  { return nil }

// TestLentRequestsAreNotSharedBetweenCalls drives one client from several
// goroutines: every in-flight call must hold a request slot of its own, and
// must read its own answer out of the recycled response before anyone else
// can be handed that response. The race job is what gives this test its
// teeth.
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

// TestMetadataCallAllocatesNothing is the allocation guard of the borrowed
// request and the recycled response: the client side of a call allocates
// nothing, and neither does the whole call over DirectTransport — the
// Response every request used to cost comes from the recycler and goes back
// to it in exchange. A mutation allocates what the metadata store does for
// it and a refusal its error values. (AllocsPerRun reports an integer
// average, so a pooled slot lost to a GC cycle mid-measurement does not
// register.)
func TestMetadataCallAllocatesNothing(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on): pooled slots count as allocations")
	}
	canned := New(&cannedTransport{resp: protocol.Response{Status: protocol.StatusOK}})
	if allocs := testing.AllocsPerRun(200, func() { canned.Ping() }); allocs != 0 { //nolint:errcheck
		t.Errorf("client side of a call allocates %.0f times, want 0", allocs)
	}

	srv, authSvc := newServer(t)
	cli := connected(t, srv, authSvc, 1)
	defer cli.Close()
	if allocs := testing.AllocsPerRun(200, func() { cli.Ping() }); allocs != 0 { //nolint:errcheck
		t.Errorf("a Ping over DirectTransport allocates %.0f times, want 0", allocs)
	}

	root, _ := cli.RootVolume()
	names := make([]string, 1001)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	next := 0
	pair := testing.AllocsPerRun(len(names)-1, func() {
		mk, err := cli.do(protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: names[next]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.do(protocol.Request{Op: protocol.OpUnlink, Volume: root, Node: mk.Node.ID}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// All four are the metadata store's: the node row it keeps, the watcher
	// list each of the two notifications reads, Unlink's list of what it
	// removed. Client, transport and server add none.
	if pair > 4 {
		t.Errorf("a MakeFile+Unlink pair over DirectTransport allocates %.0f times, want 4 (the store's own)", pair)
	}

	// The answer itself is free (fail takes it from the recycler, see the
	// apiserver's guard); what a refusal costs is its two error values, the
	// store's and the one do wraps the status in.
	if allocs := testing.AllocsPerRun(200, func() { cli.Unlink(root, 1<<40) }); allocs > 2 { //nolint:errcheck
		t.Errorf("a refused Unlink allocates %.0f times, want 2 (the store's error and the client's)", allocs)
	}
}

// keepingTransport breaks the handover on purpose: it keeps every response
// it returned.
type keepingTransport struct {
	Transport
	kept []*protocol.Response
}

func (k *keepingTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	resp, err := k.Transport.Do(req)
	k.kept = append(k.kept, resp)
	return resp, err
}

// serving returns a dialer per transport kind against one data-carrying API
// server: in process, and over a loopback socket the server's connection
// loop answers.
func serving(t *testing.T) (map[string]func() Transport, *auth.Service) {
	t.Helper()
	srv, authSvc := newServerWith(apiserver.Config{Name: "t", Procs: 2, InlineData: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln) //nolint:errcheck // ends when the listener closes
	return map[string]func() Transport{
		"direct": func() Transport { return NewDirectTransport(FixedServer(srv), nil) },
		"tcp": func() Transport {
			tr, err := DialTCP(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}, authSvc
}

// blank fails the test for every kept response, from index from on, that is
// not wiped, and returns how many are kept now.
func (k *keepingTransport) blank(t *testing.T, from int, after string) int {
	t.Helper()
	if len(k.kept) == from {
		t.Fatalf("%s made no exchange", after)
	}
	for i := from; i < len(k.kept); i++ {
		if !reflect.DeepEqual(*k.kept[i], protocol.Response{}) {
			t.Errorf("response %d still reads %+v after %s returned", i, *k.kept[i], after)
		}
	}
	return len(k.kept)
}

// TestRetainedResponseIsWipedAfterCall pins the taker's half of the response
// rule: the client gives every response back before its call returns, so a
// transport that (wrongly) kept the pointer finds it blank — for the answers
// the server built, failures included, for the ones DirectTransport makes up
// itself, and for the ones the TCP read loop decoded. (Over TCP the peer is
// the test's own echo server: an API server in this process would share the
// recycler, and looking at a response one no longer owns is the very race
// the rule forbids.)
func TestRetainedResponseIsWipedAfterCall(t *testing.T) {
	srv, authSvc := newServerWith(apiserver.Config{Name: "t", Procs: 2, InlineData: true})
	token, err := authSvc.Issue(11)
	if err != nil {
		t.Fatal(err)
	}
	tr := &keepingTransport{Transport: NewDirectTransport(FixedServer(srv), nil)}
	cli := New(tr)
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	n := tr.blank(t, 0, "Connect")
	root, _ := cli.RootVolume()
	node, _, err := cli.Upload(root, 0, "a.txt", []byte("some content"))
	if err != nil {
		t.Fatal(err)
	}
	n = tr.blank(t, n, "Upload")
	if data, err := cli.Download(root, node.ID); err != nil || string(data) != "some content" {
		t.Fatalf("download = %q, %v", data, err)
	}
	n = tr.blank(t, n, "Download")
	if _, err := cli.Sync(root); err != nil {
		t.Fatal(err)
	}
	n = tr.blank(t, n, "Sync")
	if vols, err := cli.ListVolumes(); err != nil || len(vols) == 0 {
		t.Fatalf("volumes = %v, %v", vols, err)
	}
	n = tr.blank(t, n, "ListVolumes")
	if err := cli.Unlink(root, 1<<40); err == nil {
		t.Fatal("unlinking a missing node succeeded")
	}
	n = tr.blank(t, n, "a refused Unlink")
	if err := cli.Disconnect(); err != nil {
		t.Fatal(err)
	}
	n = tr.blank(t, n, "Disconnect")
	if err := cli.Ping(); err == nil {
		t.Fatal("ping without a session succeeded")
	}
	tr.blank(t, n, "a sessionless Ping")

	tcp, err := DialTCP(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	tr = &keepingTransport{Transport: tcp}
	cli = New(tr)
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
		tr.blank(t, i, "a Ping over TCP")
	}
}

// TestCannedResponseIsLeftAlone pins the other side of the recycler's mark:
// a transport may answer with a response of its own making, again and again,
// and the client's release never touches it.
func TestCannedResponseIsLeftAlone(t *testing.T) {
	canned := protocol.Response{
		Status:  protocol.StatusOK,
		Session: 3, User: 9,
		Volumes: []protocol.VolumeInfo{{ID: 4, Type: protocol.VolumeRoot, Path: "~/Ubuntu One"}},
		Shares:  []protocol.ShareInfo{{ID: 1, Volume: 4, Name: "s"}},
		Deltas:  []protocol.DeltaEntry{{Node: protocol.NodeInfo{ID: 5, Volume: 4, Name: "d"}}},
	}
	tr := &cannedTransport{resp: canned}
	cli := New(tr)
	if err := cli.Connect("token"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Sync(4); err != nil {
		t.Fatal(err)
	}
	if vols, err := cli.ListVolumes(); err != nil || len(vols) != 1 {
		t.Fatalf("volumes = %v, %v", vols, err)
	}
	if !reflect.DeepEqual(tr.resp, canned) {
		t.Errorf("the client changed a response it was not given by the recycler:\n%+v", tr.resp)
	}
}

// TestResultsSurviveLaterCalls pins what a caller may keep: the slices a
// client method returns — volume and share lists, a sync's changed files, a
// download's bytes — are the caller's, and the calls that follow, which
// reuse the very responses those results travelled in, never write to them.
func TestResultsSurviveLaterCalls(t *testing.T) {
	dialers, authSvc := serving(t)
	user := protocol.UserID(20)
	for name, dial := range dialers {
		user++
		t.Run(name, func(t *testing.T) {
			token, err := authSvc.Issue(user)
			if err != nil {
				t.Fatal(err)
			}
			writer := New(dial())
			if err := writer.Connect(token); err != nil {
				t.Fatal(err)
			}
			defer writer.Close()
			root, _ := writer.RootVolume()
			content := bytes.Repeat([]byte("0123456789abcdef"), 4<<10)
			var first protocol.NodeInfo
			for i := 0; i < 3; i++ {
				node, _, err := writer.Upload(root, 0, fmt.Sprintf("f%d.bin", i), append(content, byte(i)))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = node
				}
			}
			if _, err := writer.CreateUDF("~/Music"); err != nil {
				t.Fatal(err)
			}
			grantee := user + 100
			granteeToken, err := authSvc.Issue(grantee)
			if err != nil {
				t.Fatal(err)
			}
			other := New(dial())
			if err := other.Connect(granteeToken); err != nil { // provisions the account
				t.Fatal(err)
			}
			defer other.Close()
			if _, err := writer.CreateShare(root, grantee, "shared", true); err != nil {
				t.Fatal(err)
			}

			cli := New(dial())
			if err := cli.Connect(token); err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			vols, err := cli.ListVolumes()
			if err != nil || len(vols) != 2 {
				t.Fatalf("volumes = %v, %v", vols, err)
			}
			shares, err := cli.ListShares()
			if err != nil || len(shares) != 1 {
				t.Fatalf("shares = %v, %v", shares, err)
			}
			changed, err := cli.Sync(root)
			if err != nil || len(changed) != 3 {
				t.Fatalf("changed files = %v, %v", changed, err)
			}
			data, err := cli.Download(root, first.ID)
			if err != nil || !bytes.Equal(data, append(content, 0)) {
				t.Fatalf("download: %d bytes, %v", len(data), err)
			}
			wantVols := append([]protocol.VolumeInfo(nil), vols...)
			wantShares := append([]protocol.ShareInfo(nil), shares...)
			wantChanged := append([]protocol.NodeInfo(nil), changed...)
			wantData := bytes.Clone(data)

			for i := 0; i < 40; i++ {
				if _, err := cli.Mkdir(root, 0, fmt.Sprintf("d%d", i)); err != nil {
					t.Fatal(err)
				}
				if _, err := cli.Sync(root); err != nil {
					t.Fatal(err)
				}
				cli.ListVolumes()                 //nolint:errcheck
				cli.ListShares()                  //nolint:errcheck
				cli.Download(root, changed[1].ID) //nolint:errcheck
				cli.Unlink(root, 1<<40)           //nolint:errcheck
			}
			if !reflect.DeepEqual(vols, wantVols) || !reflect.DeepEqual(shares, wantShares) ||
				!reflect.DeepEqual(changed, wantChanged) || !bytes.Equal(data, wantData) {
				t.Errorf("results changed under later calls:\n%+v\n%+v\n%+v\n%d bytes", vols, shares, changed, len(data))
			}
		})
	}
}
