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

// sink keeps a measured map on the heap.
var sink map[protocol.NodeID]Node

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
// volume whose delta log is off allocates its mirror map, plus 8 bytes a
// node three times over (the server's sorted ids, the client's names, the
// list of changed ids) and a margin for size-class rounding. The listing
// itself travels in a pooled buffer, so decoding it into 96-byte entries on
// either side, or a mirror of whole NodeInfo values, is far past the bound.
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

	mirror := allocated(20, func() {
		sink = make(map[protocol.NodeID]Node, nodes)
		for i := 0; i < nodes; i++ {
			sink[protocol.NodeID(i+1)] = Node{}
		}
	})
	const perNode, margin = 3 * 8, 2 << 10
	limit := mirror + perNode*nodes + margin

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
		t.Errorf("a rescan of %d nodes allocates %d B, want at most %d (mirror map %d + %d B a node + margin %d)",
			nodes, got, limit, mirror, perNode, margin)
	}
	t.Logf("rescan of %d nodes: %d B (mirror map %d)", nodes, got, mirror)
}
