package metadata

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"u1/internal/protocol"
)

// nodeTable is a shard's node tree with no pointer per node:
//   - rows: every node's fields but its name, 72 pointer-free bytes, in
//     fixed pages of pageRows, addressed by a dense uint32 row ID; the slots
//     of removed rows are reused first. Pages never move, so a *row stays
//     valid until its node is removed.
//   - index: one map from NodeID to row ID.
//   - names: a byte arena of chunks (nameArena), rebuilt once its dead bytes
//     outweigh its live ones.
//   - children: each directory that holds entries keeps a run of its
//     children's row IDs sorted by name, searched by bisection. A run never
//     holds a removed row: removal takes a row out of its parent's run.
//
// The collector marks none of the pages or chunks. Walks that feed journals,
// fingerprints and listings sort by NodeID themselves; the name order of a
// run never shows outside the table.
type nodeTable struct {
	pages []*[pageRows]row
	used  uint32   // rows handed out so far: the next fresh row ID
	free  []uint32 // removed rows, reused before fresh ones
	index map[protocol.NodeID]uint32
	kids  map[protocol.NodeID][]uint32
	names nameArena
}

// pageRows rows of 72 bytes fill a page of exactly 18 KB, a size class.
const pageRows = 256

// row is one node: its protocol.NodeInfo with the name as a reference into
// the table's arena.
type row struct {
	id     protocol.NodeID
	vol    protocol.VolumeID
	parent protocol.NodeID
	size   uint64
	gen    protocol.Generation
	hash   protocol.Hash
	kind   protocol.NodeKind
	live   bool // false on a slot of the free list
	name   nameRef
}

func newNodeTable() *nodeTable {
	return &nodeTable{
		index: make(map[protocol.NodeID]uint32),
		kids:  make(map[protocol.NodeID][]uint32),
	}
}

func (t *nodeTable) at(r uint32) *row { return &t.pages[r/pageRows][r%pageRows] }

// get returns the row of node id.
func (t *nodeTable) get(id protocol.NodeID) (*row, bool) {
	r, ok := t.index[id]
	if !ok {
		return nil, false
	}
	return t.at(r), true
}

// info returns n's protocol view with a name of its own, which may outlive
// the shard lock.
func (t *nodeTable) info(n *row) protocol.NodeInfo {
	info := t.view(n)
	info.Name = strings.Clone(info.Name)
	return info
}

// view returns n's protocol view with its name aliasing the arena: for
// encoding or comparing under the shard lock, never to be kept past it.
func (t *nodeTable) view(n *row) protocol.NodeInfo {
	return protocol.NodeInfo{
		ID: n.id, Volume: n.vol, Parent: n.parent, Kind: n.kind,
		Name: t.names.str(n.name), Hash: n.hash, Size: n.size, Generation: n.gen,
	}
}

// child returns the entry called name in directory dir.
func (t *nodeTable) child(dir protocol.NodeID, name string) (*row, bool) {
	run := t.kids[dir]
	i, ok := t.search(run, name)
	if !ok {
		return nil, false
	}
	return t.at(run[i]), true
}

// search bisects a run for name: its position, and whether it is there.
func (t *nodeTable) search(run []uint32, name string) (int, bool) {
	return slices.BinarySearchFunc(run, name, func(r uint32, name string) int {
		return strings.Compare(t.names.str(t.at(r).name), name)
	})
}

// appendChildren appends the IDs of dir's entries to dst, in name order.
func (t *nodeTable) appendChildren(dst []protocol.NodeID, dir protocol.NodeID) []protocol.NodeID {
	for _, r := range t.kids[dir] {
		dst = append(dst, t.at(r).id)
	}
	return dst
}

// listRow is one node of a listing being gathered: its ID, the listing's
// order, and its row.
type listRow struct {
	id protocol.NodeID
	r  uint32
}

// appendSubtree appends the nodes of the subtree rooted at row r, r
// included, breadth-first, the list itself serving as the walk's queue. A
// row's kind, read from its page, says whether it has a run to walk, so no
// node is looked up by its ID.
func (t *nodeTable) appendSubtree(dst []listRow, r uint32) []listRow {
	dst = append(dst, listRow{t.at(r).id, r})
	for i := len(dst) - 1; i < len(dst); i++ {
		if n := t.at(dst[i].r); n.kind == protocol.KindDir {
			for _, k := range t.kids[n.id] {
				dst = append(dst, listRow{t.at(k).id, k})
			}
		}
	}
	return dst
}

// each calls f on every node, in row order.
func (t *nodeTable) each(f func(n *row)) {
	for r := range t.used {
		if n := t.at(r); n.live {
			f(n)
		}
	}
}

// insert adds info as a node and enters it in its parent's run.
func (t *nodeTable) insert(info protocol.NodeInfo) {
	t.attach(t.add(info))
}

// add stores info as a node, replacing any node with its ID, without
// entering it in a run; link enters every node once all are added.
func (t *nodeTable) add(info protocol.NodeInfo) uint32 {
	t.remove(info.ID)
	var r uint32
	if k := len(t.free); k > 0 {
		r, t.free = t.free[k-1], t.free[:k-1]
	} else {
		if t.used%pageRows == 0 {
			t.pages = append(t.pages, new([pageRows]row))
		}
		r = t.used
		t.used++
	}
	*t.at(r) = row{
		id: info.ID, vol: info.Volume, parent: info.Parent, size: info.Size,
		gen: info.Generation, hash: info.Hash, kind: info.Kind, live: true,
		name: t.names.add(info.Name),
	}
	t.index[info.ID] = r
	return r
}

// link enters every node in its parent's run, in row order.
func (t *nodeTable) link() {
	for r := range t.used {
		if t.at(r).live {
			t.attach(r)
		}
	}
}

// update overwrites node info.ID's fields from info, moving it between runs
// when its parent or name changes.
func (t *nodeTable) update(info protocol.NodeInfo) {
	r, ok := t.index[info.ID]
	if !ok {
		return
	}
	n := t.at(r)
	if renamed := t.names.str(n.name) != info.Name; renamed || n.parent != info.Parent {
		t.detach(r)
		if renamed {
			t.names.drop(n.name)
			n.name = t.names.add(info.Name)
		}
		n.parent = info.Parent
		t.attach(r)
		t.compactNames()
	}
	n.vol, n.size, n.gen, n.hash, n.kind = info.Volume, info.Size, info.Generation, info.Hash, info.Kind
}

// remove deletes node id, taking it out of its parent's run. Its own run
// goes with it: a caller removing a subtree removes every node in it.
func (t *nodeTable) remove(id protocol.NodeID) {
	r, ok := t.index[id]
	if !ok {
		return
	}
	t.detach(r)
	n := t.at(r)
	t.names.drop(n.name)
	delete(t.kids, id)
	delete(t.index, id)
	*n = row{}
	t.free = append(t.free, r)
	t.compactNames()
}

// attach enters row r in its parent's run when the parent is a directory,
// in place of any entry of the same name.
func (t *nodeTable) attach(r uint32) {
	n := t.at(r)
	if n.parent == 0 {
		return // a volume root hangs off its volume
	}
	if p, ok := t.get(n.parent); !ok || p.kind != protocol.KindDir {
		return
	}
	run := t.kids[n.parent]
	i, ok := t.search(run, t.names.str(n.name))
	if ok {
		run[i] = r
		return
	}
	t.kids[n.parent] = slices.Insert(run, i, r)
}

// detach takes row r out of its parent's run, if that run holds it. An
// emptied run keeps its array for the directory's next entry.
func (t *nodeTable) detach(r uint32) {
	n := t.at(r)
	run := t.kids[n.parent]
	if i, ok := t.search(run, t.names.str(n.name)); ok && run[i] == r {
		t.kids[n.parent] = slices.Delete(run, i, i+1)
	}
}

// compactNames rebuilds the arena from the live names once its dead bytes
// exceed both its live bytes and one chunk, so renames and removals cannot
// grow it without bound: each rebuild copies fewer bytes than were freed
// since the last one. No byte of a chunk is written twice, so a name viewed
// before a rebuild still reads right after it.
func (t *nodeTable) compactNames() {
	if t.names.dead <= t.names.live || t.names.dead <= chunkSize {
		return
	}
	old := t.names
	t.names = nameArena{}
	t.each(func(n *row) { n.name = t.names.add(old.str(n.name)) })
}

// nameRef locates a name in its arena: the chunk in the high bits of at,
// the offset in the chunk in its low chunkBits, and the length.
type nameRef struct{ at, n uint32 }

// nameArena holds a table's names back to back in chunks that only ever
// grow at the tail; the first chunk is small and each next one twice the
// last, up to chunkSize, so a shard with few nodes keeps a small arena. A
// name longer than chunkSize gets a chunk of its own. live and dead count
// the bytes of names held and dropped.
type nameArena struct {
	chunks     [][]byte
	live, dead int
}

const (
	chunkBits = 14
	chunkSize = 1 << chunkBits // 16 KB, a size class
	minChunk  = 256
	maxChunks = 1 << (32 - chunkBits)
)

// add copies name into the arena. It panics, naming the limit, rather than
// let a reference wrap: past 4 GB of chunks in one shard, or for a name
// longer than 4 GB.
func (a *nameArena) add(name string) nameRef {
	if name == "" {
		return nameRef{}
	}
	if uint64(len(name)) > math.MaxUint32 {
		panic(fmt.Sprintf("metadata: a %d-byte node name does not fit a name reference", len(name)))
	}
	k := len(a.chunks) - 1
	if k < 0 || cap(a.chunks[k])-len(a.chunks[k]) < len(name) {
		if len(a.chunks) == maxChunks {
			panic(fmt.Sprintf("metadata: a shard's name arena is full (%d chunks, %d live bytes)", maxChunks, a.live))
		}
		size := minChunk
		if k >= 0 {
			size = min(2*cap(a.chunks[k]), chunkSize)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, len(name))))
		k++
	}
	c := a.chunks[k]
	a.chunks[k] = append(c, name...)
	a.live += len(name)
	return nameRef{at: uint32(k)<<chunkBits | uint32(len(c)), n: uint32(len(name))}
}

// drop counts ref's bytes dead; they stay in place until a rebuild.
func (a *nameArena) drop(ref nameRef) {
	a.live -= int(ref.n)
	a.dead += int(ref.n)
}

// str returns the name at ref as a string aliasing its chunk.
func (a *nameArena) str(ref nameRef) string {
	if ref.n == 0 {
		return ""
	}
	off := ref.at & (chunkSize - 1)
	return unsafe.String(&a.chunks[ref.at>>chunkBits][off], ref.n)
}
