// Package metadata implements the U1 metadata store: the stand-in for the
// PostgreSQL cluster of 20 Dell servers configured as 10 master/slave shards
// described in §3.4 of the paper.
//
// The store routes every operation by user identifier to a shard, so the
// metadata of a user's files and folders always lives in the same shard and
// most operations touch exactly one shard without distributed locking
// ("lockless" in the paper's wording). Only share-related operations may span
// two shards. Read operations take the shard's read lock (the slave replica
// serves them in the real deployment; both replicas hold identical data here
// and the replica split is modeled for load accounting), while mutations take
// the write lock (the master).
//
// Per-volume generations implement the synchronization protocol: every
// mutation advances the owning volume's generation and appends to a bounded
// delta log. Clients that fall behind the log horizon must rescan from
// scratch — the expensive cascade read the paper calls get_from_scratch.
package metadata

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wal"
)

// Config parameterizes the store.
type Config struct {
	// Shards is the number of database shards (the paper's deployment: 10).
	Shards int
	// DeltaLogLimit bounds the per-volume delta log. A GetDelta from before
	// the horizon returns ErrDeltaTruncated and the caller falls back to
	// GetFromScratch. 0 means DefaultDeltaLogLimit. Negative disables the
	// log entirely: volumes carry no delta history and every delta read
	// from a stale generation falls back to a full rescan — the
	// million-user scale campaign's setting, trading delta-read cost for
	// zero per-volume log memory.
	DeltaLogLimit int
	// Metrics receives per-shard load counters, lock hold times, and the
	// delta/cascade counters. nil disables registration (the handles still
	// work, they are just not exported anywhere).
	Metrics *metrics.Registry
	// Durability, when non-empty, is the root directory of the durable tier:
	// each shard keeps a journal and snapshot under <Durability>/shard-<i>.
	// Empty keeps the store purely in-memory (the pre-durability behavior).
	Durability string
	// FsyncPolicy selects when journal appends reach stable storage; the
	// zero value is wal.FsyncPerOp, the strongest setting.
	FsyncPolicy wal.Policy
	// SnapshotEvery is the per-shard journal record count between snapshots.
	// 0 means DefaultSnapshotEvery.
	SnapshotEvery int
	// Regions partitions the shards into contiguous groups with asynchronous
	// cross-region replication between them (see replicate.go). Values ≤ 1
	// disable replication; values above Shards are clamped to Shards.
	Regions int
	// ReplicationDelay is how many replication epochs a published record waits
	// in a peer region's backlog before applying. 0 applies records on the
	// tick that ships them.
	ReplicationDelay int
	// EventualReads serves cross-region reads from the reader region's
	// replica (possibly stale) instead of the owner shard. The default is
	// read-your-writes: cross-region reads go to the owner unless its region
	// is down.
	EventualReads bool
}

// DefaultDeltaLogLimit is the per-volume delta log bound used when the
// configuration does not specify one.
const DefaultDeltaLogLimit = 512

// ErrDeltaTruncated reports that the requested generation fell behind the
// delta log horizon; the client must rescan the volume from scratch.
var ErrDeltaTruncated = fmt.Errorf("%w: delta log truncated", protocol.ErrConflict)

// storeMetrics holds the store-level instrumentation: how often delta reads
// are answered from the log, how often clients fall off the horizon
// (ErrDeltaTruncated), how many expensive get_from_scratch cascades follow,
// and how often the per-volume logs trim their history.
type storeMetrics struct {
	deltaServed    *metrics.Counter
	deltaTruncated *metrics.Counter
	fromScratch    *metrics.Counter
	logTrimmed     *metrics.Counter
}

// Store is the sharded metadata store.
type Store struct {
	shards   []*shard
	contents *contentRegistry
	m        storeMetrics

	// dur is the durable tier (per-shard journal + snapshot); nil for
	// in-memory stores.
	dur *durability

	// repl is the cross-region replication tier (see replicate.go); nil with
	// a single region.
	repl *replication

	// volumeDir maps every live volume to its owner, the directory the
	// request router consults to find the shard that holds a volume that is
	// not the caller's (shared volumes may live in a different shard).
	volumeDir volumeDirectory

	nextVolume uint64
	nextNode   uint64
	nextShare  uint64
	nextUpload uint64
}

// New creates a store with cfg. A zero config yields 10 shards, matching the
// U1 deployment. New panics when recovery of a durable store fails; callers
// that need the error (anything reopening real state) use Open.
func New(cfg Config) *Store {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("metadata: opening store: %v", err))
	}
	return s
}

// Open creates a store with cfg and, when cfg.Durability names a directory,
// recovers every shard from its snapshot plus journal before returning. The
// error is non-nil only for durable stores whose on-disk state cannot be
// opened.
func Open(cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 10
	}
	if cfg.DeltaLogLimit == 0 {
		cfg.DeltaLogLimit = DefaultDeltaLogLimit
	}
	s := &Store{
		shards:   make([]*shard, cfg.Shards),
		contents: newContentRegistry(),
		m: storeMetrics{
			deltaServed:    cfg.Metrics.Counter("meta.delta.served"),
			deltaTruncated: cfg.Metrics.Counter("meta.delta.truncated"),
			fromScratch:    cfg.Metrics.Counter("meta.get_from_scratch"),
			logTrimmed:     cfg.Metrics.Counter("meta.deltalog.trimmed"),
		},
	}
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg.DeltaLogLimit, cfg.Metrics)
	}
	if cfg.Regions > cfg.Shards {
		cfg.Regions = cfg.Shards
	}
	if cfg.Regions > 1 {
		s.repl = newReplication(cfg, cfg.Metrics)
	}
	if cfg.Durability != "" {
		if err := s.openDurability(cfg, cfg.Metrics); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index that owns the user's metadata. Routing
// hashes the user id so placement is deterministic but uncorrelated with
// registration order, as in the production router.
func (s *Store) ShardFor(user protocol.UserID) int {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(user) >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(len(s.shards)))
}

func (s *Store) shardOf(user protocol.UserID) *shard {
	return s.shards[s.ShardFor(user)]
}

// ShardLoads returns per-shard cumulative (reads, writes) counters, the
// instrumentation behind the Fig. 14 load-balance analysis at store level.
func (s *Store) ShardLoads() (reads, writes []uint64) {
	reads = make([]uint64, len(s.shards))
	writes = make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		reads[i] = sh.m.reads.Value()
		writes[i] = sh.m.writes.Value()
	}
	return reads, writes
}

// Contents exposes the content registry (dedup catalog).
func (s *Store) Contents() *ContentStats { return s.contents.stats() }

func (s *Store) allocVolume() protocol.VolumeID {
	return protocol.VolumeID(atomic.AddUint64(&s.nextVolume, 1))
}

func (s *Store) allocNode() protocol.NodeID {
	return protocol.NodeID(atomic.AddUint64(&s.nextNode, 1))
}

func (s *Store) allocShare() protocol.ShareID {
	return protocol.ShareID(atomic.AddUint64(&s.nextShare, 1))
}

func (s *Store) allocUpload() protocol.UploadID {
	return protocol.UploadID(atomic.AddUint64(&s.nextUpload, 1))
}

// bumpTo raises the allocator at addr to at least v, so identifiers observed
// in recovered state are never reissued.
func bumpTo(addr *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(addr)
		if cur >= v || atomic.CompareAndSwapUint64(addr, cur, v) {
			return
		}
	}
}

// shardMetrics holds one shard's registered handles: counters mirroring the
// reads/writes atomics, and the master/slave lock hold-time histograms —
// the live view of the per-shard load the paper derives offline in Fig. 14.
type shardMetrics struct {
	reads     *metrics.Counter
	writes    *metrics.Counter
	readHold  *metrics.Histogram
	writeHold *metrics.Histogram
}

// shard is one master/slave pair of the cluster. The RWMutex models the
// paper's access pattern: reads run lockless and in parallel on the slave,
// writes serialize on the master. reads/writes counters feed load accounting.
type shard struct {
	id            int
	deltaLogLimit int
	m             shardMetrics

	mu         sync.RWMutex
	users      map[protocol.UserID]*userRow
	volumes    map[protocol.VolumeID]*volumeRow
	nodes      map[protocol.NodeID]*nodeRow
	shares     map[protocol.ShareID]*protocol.ShareInfo
	uploadjobs map[protocol.UploadID]*UploadJob

	// revoked, when non-nil, reports share ids revoked at the owner but not
	// yet replicated here. Set only on replica shards of a region (see
	// regionState.revoked); owner shards observe revocations under their own
	// write lock and need no tombstones.
	revoked func(protocol.ShareID) bool
}

func newShard(id, deltaLogLimit int, reg *metrics.Registry) *shard {
	prefix := metrics.ShardPrefix + strconv.Itoa(id)
	return &shard{
		id:            id,
		deltaLogLimit: deltaLogLimit,
		m: shardMetrics{
			reads:     reg.Counter(prefix + ".reads"),
			writes:    reg.Counter(prefix + ".writes"),
			readHold:  reg.Histogram(prefix + ".read_hold.seconds"),
			writeHold: reg.Histogram(prefix + ".write_hold.seconds"),
		},
		users:      make(map[protocol.UserID]*userRow),
		volumes:    make(map[protocol.VolumeID]*volumeRow),
		nodes:      make(map[protocol.NodeID]*nodeRow),
		shares:     make(map[protocol.ShareID]*protocol.ShareInfo),
		uploadjobs: make(map[protocol.UploadID]*UploadJob),
	}
}

// volumeDirectory is the volume→owner routing table: plain maps behind
// striped read-write locks. sync.Map pays ~100 bytes of trie nodes plus two
// boxed interfaces per entry where a plain map entry is 16 bytes — tens of
// megabytes at millions of volumes — and the striped locks keep the read
// path (every routed request) uncontended. Maps materialize on first store,
// so zero-valued directories work without a constructor.
type volumeDirectory struct {
	shards [16]volumeDirShard
}

type volumeDirShard struct {
	mu sync.RWMutex
	m  map[protocol.VolumeID]protocol.UserID
}

func (d *volumeDirectory) shard(vol protocol.VolumeID) *volumeDirShard {
	return &d.shards[uint64(vol)%uint64(len(d.shards))]
}

func (d *volumeDirectory) load(vol protocol.VolumeID) (protocol.UserID, bool) {
	sh := d.shard(vol)
	sh.mu.RLock()
	owner, ok := sh.m[vol]
	sh.mu.RUnlock()
	return owner, ok
}

func (d *volumeDirectory) store(vol protocol.VolumeID, owner protocol.UserID) {
	sh := d.shard(vol)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[protocol.VolumeID]protocol.UserID)
	}
	sh.m[vol] = owner
	sh.mu.Unlock()
}

func (d *volumeDirectory) delete(vol protocol.VolumeID) {
	sh := d.shard(vol)
	sh.mu.Lock()
	delete(sh.m, vol)
	sh.mu.Unlock()
}

func (d *volumeDirectory) clear() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}

type userRow struct {
	id   protocol.UserID
	root protocol.VolumeID
	// volumes owned by this user, including the root volume. A slice, not a
	// set: users own a handful of volumes, and a one-entry map per user is
	// ~200 bytes of buckets at million-user populations. Order is insertion
	// order; consumers sort where output order matters.
	volumes []protocol.VolumeID
	// incoming shares (this user is the grantee); nil until the first grant —
	// most users never share, and an empty map per user is real memory at
	// million-user populations. Reads, deletes and ranges treat nil as empty.
	sharesIn map[protocol.ShareID]struct{}
	// outgoing shares (this user is the owner); nil until the first grant
	sharesOut map[protocol.ShareID]struct{}
}

func (u *userRow) addVolume(id protocol.VolumeID) { u.volumes = append(u.volumes, id) }

func (u *userRow) removeVolume(id protocol.VolumeID) {
	for i, v := range u.volumes {
		if v == id {
			u.volumes = append(u.volumes[:i], u.volumes[i+1:]...)
			return
		}
	}
}

func (u *userRow) addShareIn(id protocol.ShareID) {
	if u.sharesIn == nil {
		u.sharesIn = make(map[protocol.ShareID]struct{}, 1)
	}
	u.sharesIn[id] = struct{}{}
}

func (u *userRow) addShareOut(id protocol.ShareID) {
	if u.sharesOut == nil {
		u.sharesOut = make(map[protocol.ShareID]struct{}, 1)
	}
	u.sharesOut[id] = struct{}{}
}

// nodeRow is the packed in-store representation of a node. The sh.nodes
// key is the node's ID, so the row does not duplicate it, and the fields
// are laid out to fit the 80-byte size class — 16 bytes less than a row
// embedding a whole protocol.NodeInfo, which at ~10 nodes per user is real
// memory at a million users. info materializes the protocol view.
type nodeRow struct {
	// children indexes directory entries by name; nil for files and for
	// directories that have never held an entry. Most directories in a
	// large population are empty (every volume root starts that way), and
	// an empty map header per root is real memory at a million users —
	// the index materializes on first insert via addChild.
	children map[string]protocol.NodeID
	name     string
	vol      protocol.VolumeID
	parent   protocol.NodeID
	size     uint64
	gen      protocol.Generation
	hash     protocol.Hash
	kind     protocol.NodeKind
}

// newNodeRow packs a protocol view into a row; the ID stays with the map key.
func newNodeRow(info protocol.NodeInfo) *nodeRow {
	return &nodeRow{
		name: info.Name, vol: info.Volume, parent: info.Parent,
		size: info.Size, gen: info.Generation, hash: info.Hash, kind: info.Kind,
	}
}

// info materializes the protocol view of the row stored under id.
func (n *nodeRow) info(id protocol.NodeID) protocol.NodeInfo {
	return protocol.NodeInfo{
		ID: id, Volume: n.vol, Parent: n.parent, Kind: n.kind,
		Name: n.name, Hash: n.hash, Size: n.size, Generation: n.gen,
	}
}

// setInfo overwrites every packed field from the protocol view, keeping the
// children index.
func (n *nodeRow) setInfo(info protocol.NodeInfo) {
	n.name, n.vol, n.parent = info.Name, info.Volume, info.Parent
	n.size, n.gen, n.hash, n.kind = info.Size, info.Generation, info.Hash, info.Kind
}

// addChild records a directory entry, materializing the children index on
// first use. Readers treat a nil index and a missing key identically, so
// laziness never shows up in behavior.
func (n *nodeRow) addChild(name string, id protocol.NodeID) {
	if n.children == nil {
		n.children = make(map[string]protocol.NodeID, 1)
	}
	n.children[name] = id
}

type logEntry struct {
	gen     protocol.Generation
	node    protocol.NodeInfo
	deleted bool
}

type volumeRow struct {
	info protocol.VolumeInfo
	root protocol.NodeID
	log  []logEntry
	// droppedThrough is the highest generation whose log entries may have
	// been discarded; GetDelta can only serve fromGen ≥ droppedThrough.
	droppedThrough protocol.Generation
	// grants maps grantee user to the share id, for permission checks on
	// shared volumes; nil until the first grant (see userRow.sharesIn)
	grants map[protocol.UserID]protocol.ShareID
}

func (v *volumeRow) addGrant(to protocol.UserID, id protocol.ShareID) {
	if v.grants == nil {
		v.grants = make(map[protocol.UserID]protocol.ShareID, 1)
	}
	v.grants[to] = id
}

// volumeNodeIDs walks the children tree from v's root and returns every node
// id in the volume, root included. makeNode always attaches new nodes under
// an existing parent and unlink removes whole subtrees, so the walk reaches
// every live node — which is what lets volumeRow skip maintaining a separate
// per-volume node set (measurable memory at millions of volumes). Children
// are visited in ascending NodeID order, so the breadth-first result is
// deterministic and safe to feed journals and fingerprints directly.
func volumeNodeIDs(sh *shard, v *volumeRow) []protocol.NodeID {
	ids := append(make([]protocol.NodeID, 0, 8), v.root)
	for i := 0; i < len(ids); i++ {
		if nr, ok := sh.nodes[ids[i]]; ok {
			// The children go straight onto the list, sorted in place there.
			base := len(ids)
			for _, child := range nr.children {
				ids = append(ids, child)
			}
			slices.Sort(ids[base:])
		}
	}
	return ids
}

func (v *volumeRow) bumpGen() protocol.Generation {
	v.info.Generation++
	return v.info.Generation
}

// appendLog records a mutation in v's delta log, trimming the oldest half
// when the log exceeds the shard's retention limit. It runs under the
// shard's write lock.
func (s *Store) appendLog(sh *shard, v *volumeRow, n protocol.NodeInfo, deleted bool) {
	if v.appendLog(sh.deltaLogLimit, n, deleted) {
		s.m.logTrimmed.Inc()
	}
}

// appendLog is the log step live mutations and journal replay share; it
// reports whether the append trimmed the log.
func (v *volumeRow) appendLog(limit int, n protocol.NodeInfo, deleted bool) (trimmed bool) {
	if limit < 0 {
		// Log disabled: record only the horizon so GetDelta reports
		// truncation and clients rescan. No entry is retained.
		v.droppedThrough = v.info.Generation
		return false
	}
	v.log = append(v.log, logEntry{gen: v.info.Generation, node: n, deleted: deleted})
	if len(v.log) <= limit {
		return false
	}
	// Drop the oldest half rather than one entry at a time; amortizes the
	// copy and keeps a meaningful horizon. Entries sharing the boundary
	// generation may survive the cut, but droppedThrough makes any delta
	// spanning that generation fall back to a full rescan, so clients never
	// observe a partial cascade.
	drop := limit / 2
	if drop < 1 {
		// DeltaLogLimit 1 halves to zero; always trim at least one entry so
		// the slice index below stays legal and the log stays bounded.
		drop = 1
	}
	v.droppedThrough = v.log[drop-1].gen
	// Trim in place: the survivors move down and the vacated tail is
	// cleared (it holds name strings), so a volume's log is allocated once
	// and refilled, not re-allocated at every trim.
	kept := copy(v.log, v.log[drop:])
	clear(v.log[kept:])
	v.log = v.log[:kept]
	return true
}

func (s *shard) readOp()  { s.m.reads.Inc() }
func (s *shard) writeOp() { s.m.writes.Inc() }

// rlock counts a read op, takes the shard's read lock (the slave replica of
// the pair) and returns the acquisition time; runlock releases the lock and
// records the hold. The pair instruments every read without allocating:
//
//	defer sh.runlock(sh.rlock())   // defer evaluates rlock() immediately
//
// or, with early-release paths:
//
//	start := sh.rlock()
//	...
//	sh.runlock(start)
func (sh *shard) rlock() time.Time {
	sh.readOp()
	sh.mu.RLock()
	// Virtual time is frozen while a goroutine holds a lock, so only the host
	// clock can measure contention; the hold histograms are observability
	// only and never feed simulation state.
	//u1:allow wallclock lock-hold measurement; virtual time cannot observe contention
	return time.Now()
}

func (sh *shard) runlock(start time.Time) {
	//u1:allow wallclock lock-hold measurement; virtual time cannot observe contention
	hold := time.Since(start)
	sh.mu.RUnlock()
	sh.m.readHold.Observe(hold.Seconds())
}

// wlock/wunlock are the master-side counterparts for mutations.
func (sh *shard) wlock() time.Time {
	sh.writeOp()
	sh.mu.Lock()
	//u1:allow wallclock lock-hold measurement; virtual time cannot observe contention
	return time.Now()
}

func (sh *shard) wunlock(start time.Time) {
	//u1:allow wallclock lock-hold measurement; virtual time cannot observe contention
	hold := time.Since(start)
	sh.mu.Unlock()
	sh.m.writeHold.Observe(hold.Seconds())
}
