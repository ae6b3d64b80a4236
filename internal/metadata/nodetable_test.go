package metadata

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"u1/internal/protocol"
)

// tableModel is the naive node tree the table must agree with: every node by
// ID, and each directory's entries as a map from name to ID.
type tableModel struct {
	nodes map[protocol.NodeID]protocol.NodeInfo
	kids  map[protocol.NodeID]map[string]protocol.NodeID
}

func (m *tableModel) put(n protocol.NodeInfo) {
	m.nodes[n.ID] = n
	if n.Kind == protocol.KindDir && m.kids[n.ID] == nil {
		m.kids[n.ID] = map[string]protocol.NodeID{}
	}
}

// dirs and others list the model's directories, and its nodes but the root,
// in ID order: the runner's choices index into them.
func (m *tableModel) dirs() []protocol.NodeID {
	return sortedKeys(m.kids)
}

func (m *tableModel) others(root protocol.NodeID) []protocol.NodeID {
	ids := sortedKeys(m.nodes)
	return slices.DeleteFunc(ids, func(id protocol.NodeID) bool { return id == root })
}

// sortedKids returns dir's entries in ascending ID.
func (m *tableModel) sortedKids(dir protocol.NodeID) []protocol.NodeID {
	ids := make([]protocol.NodeID, 0, len(m.kids[dir]))
	for _, id := range m.kids[dir] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// subtree lists id's subtree depth first, children in ascending ID: the
// order an unlink record carries.
func (m *tableModel) subtree(id protocol.NodeID) []protocol.NodeID {
	var out []protocol.NodeID
	stack := []protocol.NodeID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], m.sortedKids(cur)...)
		out = append(out, cur)
	}
	return out
}

// tableRunner runs one op stream against a one-shard store and the model.
type tableRunner struct {
	t     testing.TB
	s     *Store
	m     tableModel
	vol   protocol.VolumeID
	root  protocol.NodeID
	in    []byte
	names int
	// rebuilt counts the steps after which the arena held fewer dead bytes
	// than before: a rebuild.
	rebuilt int
}

const tableUser protocol.UserID = 7

func newTableRunner(t testing.TB, in []byte) *tableRunner {
	s := New(Config{Shards: 1})
	v, err := s.CreateUser(tableUser)
	if err != nil {
		t.Fatal(err)
	}
	d := &tableRunner{t: t, s: s, vol: v.ID, in: in, m: tableModel{
		nodes: map[protocol.NodeID]protocol.NodeInfo{},
		kids:  map[protocol.NodeID]map[string]protocol.NodeID{},
	}}
	d.root = s.shards[0].volumes[v.ID].root
	d.m.put(protocol.NodeInfo{ID: d.root, Volume: v.ID, Kind: protocol.KindDir, Name: "/"})
	return d
}

// next consumes one byte of the stream; ok is false once it is spent.
func (d *tableRunner) next() (b byte, ok bool) {
	if len(d.in) == 0 {
		return 0, false
	}
	b, d.in = d.in[0], d.in[1:]
	return b, true
}

// pick chooses one of ids by the next byte.
func (d *tableRunner) pick(ids []protocol.NodeID) (protocol.NodeID, bool) {
	b, ok := d.next()
	if !ok || len(ids) == 0 {
		return 0, false
	}
	return ids[int(b)%len(ids)], true
}

// name draws a name: mostly short names from a four-letter alphabet, so
// siblings collide, and one in eight 150 bytes or more, so renames and
// unlinks churn the arena.
func (d *tableRunner) name() (string, bool) {
	b, ok := d.next()
	if !ok {
		return "", false
	}
	if b%8 == 0 {
		d.names++
		return fmt.Sprintf("%s-%d", strings.Repeat(string(rune('p'+b%5)), 150+int(b)), d.names), true
	}
	return strings.Repeat(string(rune('a'+b%4)), 1+int(b>>2)%3), true
}

// step runs one op and reports whether the stream had one left.
func (d *tableRunner) step() bool {
	op, ok := d.next()
	if !ok {
		return false
	}
	switch op % 6 {
	case 0, 1:
		kind := protocol.NodeKind(op % 2) // KindFile, KindDir
		parent, ok1 := d.pick(d.m.dirs())
		name, ok2 := d.name()
		if !ok1 || !ok2 {
			return false
		}
		d.make(parent, name, kind)
	case 2, 3:
		// A rename in place, or a move to another directory.
		node, ok1 := d.pick(d.m.others(d.root))
		target, ok2 := d.pick(d.m.dirs())
		name, ok3 := d.name()
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		if op%6 == 2 {
			target = d.m.nodes[node].Parent
		}
		d.move(node, target, name)
	case 4:
		node, ok := d.pick(d.m.others(d.root))
		if !ok {
			return false
		}
		d.unlink(node)
	case 5:
		node, ok1 := d.pick(d.m.others(d.root))
		b, ok2 := d.next()
		if !ok1 || !ok2 {
			return false
		}
		d.content(node, protocol.HashBytes([]byte{b}), uint64(b)+1)
	}
	return true
}

func (d *tableRunner) make(parent protocol.NodeID, name string, kind protocol.NodeKind) {
	got, err := d.s.makeNode(tableUser, d.vol, parent, name, kind)
	if id, taken := d.m.kids[parent][name]; taken {
		want := d.m.nodes[id]
		if want.Kind != kind {
			d.expect(err, protocol.ErrExists, "make %q under %d", name, parent)
			return
		}
		if err != nil || got != want {
			d.t.Fatalf("re-make %q under %d = %+v, %v; want the existing %+v", name, parent, got, err, want)
		}
		return
	}
	if err != nil || got.Parent != parent || got.Name != name || got.Kind != kind {
		d.t.Fatalf("make %q under %d = %+v, %v", name, parent, got, err)
	}
	d.m.put(got)
	d.m.kids[parent][name] = got.ID
}

func (d *tableRunner) move(node, target protocol.NodeID, name string) {
	got, err := d.s.Move(tableUser, d.vol, node, target, name)
	if _, taken := d.m.kids[target][name]; taken {
		d.expect(err, protocol.ErrExists, "move %d to %q under %d", node, name, target)
		return
	}
	if slices.Contains(d.m.subtree(node), target) {
		d.expect(err, protocol.ErrBadRequest, "move %d under its own subtree %d", node, target)
		return
	}
	old := d.m.nodes[node]
	want := old
	want.Parent, want.Name, want.Generation = target, name, got.Generation
	if err != nil || got != want {
		d.t.Fatalf("move %d to %q under %d = %+v, %v; want %+v", node, name, target, got, err, want)
	}
	delete(d.m.kids[old.Parent], old.Name)
	d.m.kids[target][name] = node
	d.m.put(got)
}

func (d *tableRunner) unlink(node protocol.NodeID) {
	removed, _, _, err := d.s.Unlink(tableUser, d.vol, node)
	want := d.m.subtree(node)
	var got []protocol.NodeID
	for _, n := range removed {
		got = append(got, n.ID)
		if n.Name != d.m.nodes[n.ID].Name {
			d.t.Fatalf("unlink %d: removed %d named %q, want %q", node, n.ID, n.Name, d.m.nodes[n.ID].Name)
		}
	}
	if err != nil || !slices.Equal(got, want) {
		d.t.Fatalf("unlink %d removed %v, %v; want %v", node, got, err, want)
	}
	n := d.m.nodes[node]
	delete(d.m.kids[n.Parent], n.Name)
	for _, id := range want {
		delete(d.m.nodes, id)
		delete(d.m.kids, id)
	}
}

func (d *tableRunner) content(node protocol.NodeID, h protocol.Hash, size uint64) {
	got, _, _, err := d.s.MakeContent(tableUser, d.vol, node, h, size)
	want := d.m.nodes[node]
	if want.Kind != protocol.KindFile {
		d.expect(err, protocol.ErrBadRequest, "content on dir %d", node)
		return
	}
	want.Hash, want.Size, want.Generation = h, size, got.Generation
	if err != nil || got != want {
		d.t.Fatalf("content on %d = %+v, %v; want %+v", node, got, err, want)
	}
	d.m.put(got)
}

func (d *tableRunner) expect(err, want error, format string, args ...any) {
	if !errors.Is(err, want) {
		d.t.Fatalf("%s: err %v, want %v", fmt.Sprintf(format, args...), err, want)
	}
}

// check compares the shard, and a copy of it through a snapshot, with the
// model.
func (d *tableRunner) check(step int) {
	sh := d.s.shards[0]
	d.checkShard(step, sh)
	var snap bytes.Buffer
	if err := writeSnapshot(&snap, sh, 1); err != nil {
		d.t.Fatal(err)
	}
	again := newShard(0, DefaultDeltaLogLimit, nil)
	if _, err := readSnapshot(again, snap.Bytes()); err != nil {
		d.t.Fatalf("step %d: the snapshot does not read back: %v", step, err)
	}
	d.checkShard(step, again)
	if got, want := fingerprint(again), d.s.ShardFingerprint(0); got != want {
		d.t.Fatalf("step %d: fingerprint %s after a snapshot round trip, %s before", step, got, want)
	}
}

func (d *tableRunner) checkShard(step int, sh *shard) {
	t, tbl := d.t, sh.nodes
	if len(tbl.index) != len(d.m.nodes) {
		t.Fatalf("step %d: the table holds %d nodes, the model %d", step, len(tbl.index), len(d.m.nodes))
	}
	live := 0
	for id, want := range d.m.nodes {
		live += len(want.Name)
		n, ok := tbl.get(id)
		if !ok {
			t.Fatalf("step %d: node %d missing", step, id)
		}
		if got := tbl.info(n); got != want {
			t.Fatalf("step %d: node %d reads %+v, want %+v", step, id, got, want)
		}
	}
	if tbl.names.live != live {
		t.Fatalf("step %d: the arena counts %d live bytes, the names hold %d", step, tbl.names.live, live)
	}
	for dir, kids := range d.m.kids {
		for name, id := range kids {
			if n, ok := tbl.child(dir, name); !ok || n.id != id {
				t.Fatalf("step %d: lookup of %q under %d: %v, want node %d", step, name, dir, ok, id)
			}
		}
		if _, ok := tbl.child(dir, "~absent"); ok {
			t.Fatalf("step %d: lookup of an absent name under %d found a node", step, dir)
		}
		got := tbl.appendChildren(nil, dir)
		if !slices.IsSortedFunc(got, func(a, b protocol.NodeID) int {
			return cmp.Compare(d.m.nodes[a].Name, d.m.nodes[b].Name)
		}) {
			t.Fatalf("step %d: the run of %d is not in name order: %v", step, dir, got)
		}
		if slices.Sort(got); !slices.Equal(got, d.m.sortedKids(dir)) {
			t.Fatalf("step %d: directory %d holds %v, want %v", step, dir, got, d.m.sortedKids(dir))
		}
	}
	// Breadth first from the root, children in ascending ID.
	want := []protocol.NodeID{d.root}
	for i := 0; i < len(want); i++ {
		want = append(want, d.m.sortedKids(want[i])...)
	}
	if got := volumeNodeIDs(sh, sh.volumes[d.vol]); !slices.Equal(got, want) {
		t.Fatalf("step %d: volumeNodeIDs = %v, want %v", step, got, want)
	}
}

// run steps through the whole stream, checking after every step.
func (d *tableRunner) run() {
	d.check(0)
	for step := 1; ; step++ {
		dead := d.s.shards[0].nodes.names.dead
		if !d.step() {
			return
		}
		if d.s.shards[0].nodes.names.dead < dead {
			d.rebuilt++
		}
		d.check(step)
	}
}

// TestNodeTableMatchesModel drives a seeded stream of makes, renames, moves
// across directories, subtree unlinks and content changes through the store,
// long enough that the name arena rebuilds, and after every step compares
// the node table, and its copy through a snapshot, with a map-of-maps model.
func TestNodeTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	// Each op byte is followed by its argument bytes (see step): makes
	// outnumber unlinks, so the tree grows while it churns.
	var in []byte
	for len(in) < 16000 {
		var op, args int
		switch p := rng.Intn(100); {
		case p < 35:
			op, args = 0, 2 // make a file
		case p < 50:
			op, args = 1, 2 // make a directory
		case p < 68:
			op, args = 2, 3 // rename
		case p < 80:
			op, args = 3, 3 // move
		case p < 85:
			op, args = 4, 1 // unlink
		default:
			op, args = 5, 2 // content
		}
		in = append(in, byte(op+6*rng.Intn(42)))
		for ; args > 0; args-- {
			in = append(in, byte(rng.Intn(256)))
		}
	}
	d := newTableRunner(t, in)
	d.run()
	t.Logf("%d nodes, %d arena rebuilds", len(d.s.shards[0].nodes.index), d.rebuilt)
	if d.rebuilt == 0 {
		t.Fatalf("no arena rebuild in the stream (%d live, %d dead bytes at its end)",
			d.s.shards[0].nodes.names.live, d.s.shards[0].nodes.names.dead)
	}
	if n := len(d.s.shards[0].nodes.index); n < 20 {
		t.Fatalf("the tree ended with %d nodes; the stream should grow it", n)
	}
}

// FuzzNodeTable runs the model runner over fuzzed op streams.
func FuzzNodeTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 2, 3, 1, 4, 0, 1, 2, 0, 0, 9, 5, 1, 7})
	f.Add([]byte{1, 0, 8, 1, 0, 16, 0, 1, 24, 2, 0, 0, 32, 3, 1, 0, 40, 4, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 4096 {
			return
		}
		newTableRunner(t, in).run()
	})
}

// TestNodeBytesPerNode bounds the live heap a node costs a store: 1,000
// users make 100,000 nodes through the public API (ten directories each,
// nine files in each directory, all at distinct names), delta logs off, and
// the heap is read after a collection before and after.
func TestNodeBytesPerNode(t *testing.T) {
	s := New(Config{DeltaLogLimit: -1})
	const users, dirs, files = 1000, 10, 9
	roots := make([]protocol.VolumeID, users)
	for u := range roots {
		v, err := s.CreateUser(protocol.UserID(u + 1))
		if err != nil {
			t.Fatal(err)
		}
		roots[u] = v.ID
	}
	before := heapAlloc()
	for u, vol := range roots {
		user := protocol.UserID(u + 1)
		for i := 0; i < dirs; i++ {
			dir, err := s.MakeDir(user, vol, 0, fmt.Sprintf("folder-%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < files; j++ {
				if _, err := s.MakeFile(user, vol, dir.ID, fmt.Sprintf("file%d.txt", j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	perNode := float64(heapAlloc()-before) / (users * dirs * (files + 1))
	runtime.KeepAlive(s)
	t.Logf("%.1f heap bytes per node", perNode)
	// The slab reads 125.8 B/node on linux/amd64 with go1.24; the layout
	// before it (one row object and one name string per node, one children
	// map per directory) read 180.4.
	if perNode > 150 {
		t.Fatalf("%.1f heap bytes per node, over the bound of 150", perNode)
	}
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
