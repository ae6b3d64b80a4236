package client

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/wire"
)

// storeServer builds an API server over a store the test can read directly.
func storeServer(cfg metadata.Config) (*apiserver.Server, *auth.Service, *metadata.Store) {
	store := metadata.New(cfg)
	authSvc := auth.New(auth.Config{Seed: 1})
	srv := apiserver.New(apiserver.Config{Name: "t", Procs: 2}, apiserver.Deps{
		RPC:      rpc.NewServer(store, rpc.Config{Seed: 1}),
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
	})
	return srv, authSvc, store
}

// entriesOf reads a listing out entry by entry, names included.
func entriesOf(t testing.TB, l protocol.DeltaList) []protocol.DeltaEntry {
	t.Helper()
	var out []protocol.DeltaEntry
	var e protocol.DeltaEntry
	c := l.Cursor()
	for {
		name, ok := c.Next(&e)
		if !ok {
			break
		}
		e.Node.Name = string(name)
		out = append(out, e)
	}
	if len(out) != l.Len() {
		t.Fatalf("listing of %d entries read %d", l.Len(), len(out))
	}
	return out
}

// listingTransport copies out every GetDelta answer before handing it on, so
// a test can judge Sync against the listing it was given.
type listingTransport struct {
	Transport
	t      testing.TB
	deltas []protocol.DeltaEntry
	rescan bool
}

func (l *listingTransport) Do(req *protocol.Request) (*protocol.Response, error) {
	op := req.Op
	resp, err := l.Transport.Do(req)
	if err == nil && op == protocol.OpGetDelta {
		l.deltas, l.rescan = entriesOf(l.t, resp.Deltas), resp.Rescan
	}
	return resp, err
}

// changedByInfo is the changed-file rule as it was stated over whole
// protocol.NodeInfo values: a file with content that is new to the mirror or
// whose hash moved, judged against the mirror a rescan replaces or, entry by
// entry, against the mirror a delta advances.
func changedByInfo(before map[protocol.NodeID]protocol.NodeInfo, deltas []protocol.DeltaEntry, rescan bool) []protocol.NodeID {
	known := maps.Clone(before)
	var out []protocol.NodeID
	for _, d := range deltas {
		if d.Deleted {
			if !rescan {
				delete(known, d.Node.ID)
			}
			continue
		}
		prev, existed := known[d.Node.ID]
		if d.Node.Kind == protocol.KindFile && !d.Node.Hash.IsZero() && (!existed || prev.Hash != d.Node.Hash) {
			out = append(out, d.Node.ID)
		}
		if !rescan {
			known[d.Node.ID] = d.Node
		}
	}
	return out
}

// TestMirrorEqualsListing drives a seeded mix of uploads, content edits,
// moves, unlinks and mkdirs from one device and syncs another after every
// batch: by delta, by rescan over a filled mirror (the delta log is short
// enough to trim) and by rescan into an empty one (a fresh client, as the
// simulator's LowMem mode makes). After every Sync the mirror equals the
// server's full listing projected onto Node, and the changed ids equal what
// the rule over whole NodeInfo values selects from the same answer.
func TestMirrorEqualsListing(t *testing.T) {
	srv, authSvc, store := storeServer(metadata.Config{Shards: 4, DeltaLogLimit: 6})
	const user = protocol.UserID(90)
	token, err := authSvc.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	direct := func() Transport { return NewDirectTransport(func() *apiserver.Server { return srv }, nil) }
	writer := New(direct())
	if err := writer.Connect(token); err != nil {
		t.Fatal(err)
	}
	root, _ := writer.RootVolume()
	var tr *listingTransport
	var reader *Client
	fresh := func() {
		tr = &listingTransport{Transport: direct(), t: t}
		reader = New(tr)
		if err := reader.Connect(token); err != nil {
			t.Fatal(err)
		}
	}
	fresh()

	r := rand.New(rand.NewSource(43))
	listing := func() []protocol.DeltaEntry {
		l, _, err := store.GetFromScratch(user, root)
		if err != nil {
			t.Fatal(err)
		}
		return entriesOf(t, l)
	}
	volumeRoot := listing()[0].Node.ID
	pick := func(kind protocol.NodeKind) (protocol.NodeID, bool) {
		var ids []protocol.NodeID
		for _, d := range listing() {
			if d.Node.Kind == kind && d.Node.ID != volumeRoot {
				ids = append(ids, d.Node.ID)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		return ids[r.Intn(len(ids))], true
	}
	mutate := func(i int) {
		dir, _ := pick(protocol.KindDir)
		h := protocol.HashBytes([]byte{byte(r.Intn(16))})
		switch op := r.Intn(10); {
		case op < 4:
			writer.UploadSized(root, dir, fmt.Sprintf("f%d", i), h, 10, 8) //nolint:errcheck
		case op < 6: // a content edit: the same name again, new bytes
			if f, ok := pick(protocol.KindFile); ok {
				for _, d := range listing() {
					if d.Node.ID == f {
						writer.UploadSized(root, d.Node.Parent, d.Node.Name, h, 12, 9) //nolint:errcheck
					}
				}
			}
		case op < 7:
			if f, ok := pick(protocol.KindFile); ok {
				writer.Move(root, f, dir, fmt.Sprintf("m%d", i)) //nolint:errcheck
			}
		case op < 8:
			if f, ok := pick(protocol.KindFile); ok {
				writer.Unlink(root, f) //nolint:errcheck
			} else if d, ok := pick(protocol.KindDir); ok && r.Intn(4) == 0 {
				writer.Unlink(root, d) //nolint:errcheck
			}
		default:
			writer.Mkdir(root, dir, fmt.Sprintf("d%d", i)) //nolint:errcheck
		}
	}

	var deltas, rescansFilled, rescansEmpty int
	op := 0
	for round := 0; round < 120; round++ {
		if round%10 == 9 {
			fresh()
		}
		for n := r.Intn(9); n > 0; n-- {
			mutate(op)
			op++
		}
		m, _ := reader.Mirror(root)
		before := make(map[protocol.NodeID]protocol.NodeInfo, len(m.Nodes))
		for id, n := range m.Nodes {
			before[id] = protocol.NodeInfo{ID: id, Kind: n.Kind, Hash: n.Hash}
		}
		changed, err := reader.Sync(root)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !tr.rescan:
			deltas++
		case len(before) == 0:
			rescansEmpty++
		default:
			rescansFilled++
		}
		if want := changedByInfo(before, tr.deltas, tr.rescan); !slices.Equal(changed, want) {
			t.Fatalf("round %d: Sync reported changed %v, the NodeInfo rule selects %v", round, changed, want)
		}
		m, _ = reader.Mirror(root) // a copy: the one taken before the Sync is stale
		list, gen, err := store.GetFromScratch(user, root)
		if err != nil {
			t.Fatal(err)
		}
		l := entriesOf(t, list)
		want := make(map[protocol.NodeID]Node, len(l))
		for i := range l {
			want[l[i].Node.ID] = nodeOf(&l[i].Node)
		}
		if _, ok := m.Nodes[volumeRoot]; !ok {
			// No delta names the volume's root directory, so only a
			// mirror a rescan built holds it.
			delete(want, volumeRoot)
		}
		if !maps.Equal(m.Nodes, want) || m.Gen != gen {
			t.Fatalf("round %d: mirror at gen %d holds\n%v\nthe listing at gen %d holds\n%v", round, m.Gen, m.Nodes, gen, want)
		}
	}
	if deltas == 0 || rescansFilled == 0 || rescansEmpty == 0 {
		t.Errorf("syncs by delta %d, by rescan over a filled mirror %d, into an empty one %d: want each",
			deltas, rescansFilled, rescansEmpty)
	}
}

// sink keeps a measured slice on the heap.
var sink []mirrorRow

// allocated returns the bytes f allocates per call, averaged over rounds.
func allocated(rounds int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
}

// TestRescanAllocates pins what a rescan costs: the client's mirror and not
// a copy of the listing on either side. A fresh client syncing a 200-node
// volume whose delta log is off allocates one row slice of exactly the
// listing's length, plus 16 bytes a node (its name, a few bytes in a shared
// 16-byte block, and its entry in the list of changed ids) and a margin for
// the exchange itself. The server sorts the volume in a pooled row list and
// the listing travels in a pooled buffer, so decoding it into 96-byte
// entries on either side, or a mirror kept as a map, is past the bound.
func TestRescanAllocates(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on): pooled slots count as allocations")
	}
	const nodes = 200
	srv, authSvc, _ := storeServer(metadata.Config{Shards: 4, DeltaLogLimit: -1})
	writer := connected(t, srv, authSvc, 91)
	root, _ := writer.RootVolume()
	for i := 1; i < nodes; i++ { // the root directory is the 200th node
		h := protocol.HashBytes([]byte(fmt.Sprint(i)))
		if _, _, err := writer.UploadSized(root, 0, fmt.Sprintf("f%d", i), h, 10, 8); err != nil {
			t.Fatal(err)
		}
	}

	rows := allocated(20, func() { sink = make([]mirrorRow, nodes) })
	const perNode, margin = 16, 2 << 10
	limit := rows + perNode*nodes + margin

	const rounds = 20
	clients := make([]*Client, rounds)
	for i := range clients {
		clients[i] = connected(t, srv, authSvc, 91)
	}
	i := 0
	got := allocated(rounds, func() {
		changed, err := clients[i].Sync(root)
		if err != nil || len(changed) != nodes-1 {
			t.Fatalf("rescan: %d changed, %v", len(changed), err)
		}
		i++
	})
	if got > limit {
		t.Errorf("a rescan of %d nodes allocates %d B, want at most %d (row slice %d + %d B a node + margin %d)",
			nodes, got, limit, rows, perNode, margin)
	}
	t.Logf("rescan of %d nodes: %d B (row slice %d, bound %d)", nodes, got, rows, limit)
}

// listingServer answers GetDelta with a rescan that lists entries, in their
// order, at generation gen, and every other request with an OK answer;
// ListVolumes names vol as the root volume.
type listingServer struct {
	vol     protocol.VolumeID
	gen     protocol.Generation
	entries [][]byte // each entry in its wire form
}

// serve sets the listing to nodes, in their order, at generation gen.
func (l *listingServer) serve(nodes []protocol.NodeInfo, gen protocol.Generation) {
	l.entries, l.gen = nil, gen
	for _, n := range nodes {
		var w wire.Writer
		protocol.MarshalNodeInfo(&w, n)
		w.Bool(false)
		l.entries = append(l.entries, w.Bytes())
	}
}

func (l *listingServer) Do(req *protocol.Request) (*protocol.Response, error) {
	resp := protocol.AcquireResponse()
	resp.ID, resp.Status = req.ID, protocol.StatusOK
	switch req.Op {
	case protocol.OpListVolumes:
		resp.Volumes = []protocol.VolumeInfo{{ID: l.vol, Type: protocol.VolumeRoot}}
	case protocol.OpGetDelta:
		var w protocol.DeltaWriter
		w.Start(64 * len(l.entries))
		for _, e := range l.entries {
			w.AddEncoded(e)
		}
		resp.Deltas, resp.Rescan, resp.Generation = w.List(), true, l.gen
	}
	return resp, nil
}
func (l *listingServer) Pushes() <-chan *protocol.Push { return nil }
func (l *listingServer) Close() error                  { return nil }

// volumeListing returns a listing of nodes ids first..last in ascending
// order: every third a directory; a file's hash depends on salt when its id
// is even.
func volumeListing(first, last protocol.NodeID, salt string) []protocol.NodeInfo {
	var out []protocol.NodeInfo
	for id := first; id <= last; id++ {
		n := protocol.NodeInfo{ID: id, Parent: first, Kind: protocol.KindFile, Name: fmt.Sprint("n", id), Size: uint64(id)}
		switch {
		case id%3 == 0:
			n.Kind = protocol.KindDir
		case id%2 == 0:
			n.Hash = protocol.HashBytes([]byte(fmt.Sprint(salt, id)))
		default:
			n.Hash = protocol.HashBytes([]byte(fmt.Sprint(id)))
		}
		out = append(out, n)
	}
	return out
}

// listingClient returns a client connected to srv.
func listingClient(t testing.TB, srv *listingServer) *Client {
	t.Helper()
	cli := New(srv)
	if err := cli.Connect("token"); err != nil {
		t.Fatal(err)
	}
	return cli
}

// mirrorOf reads a volume's mirror through EachNode, failing unless the ids
// come in strictly ascending order.
func mirrorOf(t *testing.T, cli *Client, vol protocol.VolumeID) map[protocol.NodeID]Node {
	t.Helper()
	out := make(map[protocol.NodeID]Node)
	last := protocol.NodeID(0)
	cli.EachNode(vol, func(id protocol.NodeID, n Node) {
		if id <= last {
			t.Fatalf("EachNode visited %d after %d", id, last)
		}
		last, out[id] = id, n
	})
	return out
}

// TestSyncAnyListingOrder serves one listing sorted, shuffled and reversed,
// into an empty mirror and into one filled by an earlier listing that
// overlaps it (some nodes gone, some hashes moved): every order builds the
// same mirror, kept in ascending ID order, and reports the same changed
// files, in the order it listed them.
func TestSyncAnyListingOrder(t *testing.T) {
	const vol = protocol.VolumeID(7)
	listing := volumeListing(10, 70, "b")
	earlier := volumeListing(1, 40, "a")
	want := make(map[protocol.NodeID]Node, len(listing))
	for i := range listing {
		want[listing[i].ID] = nodeOf(&listing[i])
	}
	shuffled := slices.Clone(listing)
	rand.New(rand.NewSource(44)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reversed := slices.Clone(listing)
	slices.Reverse(reversed)

	for _, filled := range []bool{false, true} {
		var wantChanged []protocol.NodeID
		for _, order := range []struct {
			name    string
			entries []protocol.NodeInfo
		}{{"sorted", listing}, {"shuffled", shuffled}, {"reversed", reversed}} {
			srv := &listingServer{vol: vol}
			srv.serve(earlier, 9)
			cli := listingClient(t, srv)
			if filled {
				if _, err := cli.Sync(vol); err != nil {
					t.Fatal(err)
				}
			}
			srv.serve(order.entries, 12)
			changed, err := cli.Sync(vol)
			if err != nil {
				t.Fatal(err)
			}
			if got := mirrorOf(t, cli, vol); !maps.Equal(got, want) {
				t.Errorf("filled %v, %s: mirror holds\n%v\nwant\n%v", filled, order.name, got, want)
			}
			var rule []protocol.NodeID
			for _, n := range order.entries {
				prev, existed := Node{}, false
				if filled && n.ID <= 40 {
					prev, existed = nodeOf(&earlier[n.ID-1]), true
				}
				if n.Kind == protocol.KindFile && (!existed || prev.Hash != n.Hash) {
					rule = append(rule, n.ID)
				}
			}
			if !slices.Equal(changed, rule) {
				t.Errorf("filled %v, %s: changed %v, want %v", filled, order.name, changed, rule)
			}
			slices.Sort(changed)
			if wantChanged == nil {
				wantChanged = changed
			} else if !slices.Equal(changed, wantChanged) {
				t.Errorf("filled %v, %s: changed %v, sorted order gave %v", filled, order.name, changed, wantChanged)
			}
		}
		if files := len(listing) - len(listing)/3; filled && len(wantChanged) == files || len(wantChanged) == 0 {
			t.Errorf("filled %v: %d of %d files changed, want some but not all", filled, len(wantChanged), files)
		}
	}
}

// TestMirrorCopyIsIndependent pins Mirror as a copy: a later Sync does not
// change it, and editing it does not change the client's replica.
func TestMirrorCopyIsIndependent(t *testing.T) {
	const vol = protocol.VolumeID(7)
	srv := &listingServer{vol: vol}
	srv.serve(volumeListing(1, 20, "a"), 3)
	cli := listingClient(t, srv)
	if _, err := cli.Sync(vol); err != nil {
		t.Fatal(err)
	}
	copied, _ := cli.Mirror(vol)
	want := maps.Clone(copied.Nodes)

	srv.serve(volumeListing(5, 30, "b"), 8)
	if _, err := cli.Sync(vol); err != nil {
		t.Fatal(err)
	}
	if copied.Gen != 3 || !maps.Equal(copied.Nodes, want) {
		t.Errorf("a later Sync changed the copy: gen %d, nodes %v", copied.Gen, copied.Nodes)
	}

	live := mirrorOf(t, cli, vol)
	copied.Nodes[5] = Node{Name: "edited"}
	delete(copied.Nodes, 6)
	copied.Nodes[99] = Node{Name: "added"}
	if got := mirrorOf(t, cli, vol); !maps.Equal(got, live) {
		t.Errorf("editing the copy changed the client: %v, want %v", got, live)
	}
	if n, ok := cli.Node(vol, 5); !ok || n.Name != "n5" {
		t.Errorf("Node(5) = %+v, %v after the copy was edited", n, ok)
	}
}

// BenchmarkSyncRescan syncs a 200-node volume by rescan from a server that
// holds the listing ready: into an empty mirror (a fresh client, as the
// simulator's LowMem mode makes), and over a filled one that already holds
// every node.
func BenchmarkSyncRescan(b *testing.B) {
	const vol = protocol.VolumeID(7)
	srv := &listingServer{vol: vol}
	srv.serve(volumeListing(1, 200, "a"), 5)
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cli := listingClient(b, srv)
			b.StartTimer()
			if _, err := cli.Sync(vol); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filled", func(b *testing.B) {
		cli := listingClient(b, srv)
		if _, err := cli.Sync(vol); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Sync(vol); err != nil {
				b.Fatal(err)
			}
		}
	})
}
