// Package metadata implements the U1 metadata store: the stand-in for the
// PostgreSQL cluster of 20 Dell servers configured as 10 master/slave shards
// described in §3.4 of the paper.
//
// The store routes every operation by user identifier to a shard, so the
// metadata of a user's files and folders always lives in the same shard and
// most operations touch exactly one shard without distributed locking
// ("lockless" in the paper's wording). A share is one row on its owner's
// shard; the grantee finds it through a store-level index of incoming shares,
// so creating one reads the grantee's shard but writes only the owner's. Read
// operations take the shard's read lock (the slave replica
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
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
	"u1/internal/wire"
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
	// FS is the disk Durability names a directory on: every file call of the
	// durable tier goes through it, and its FlushCost prices a sync. nil is
	// the real disk (vfs.OSFS); a vfs.MemFS is a disk that can lose power.
	// Validate refuses it without Durability.
	FS vfs.FS
	// FsyncPolicy selects when journal appends reach stable storage; the
	// zero value is wal.FsyncPerOp, the strongest setting.
	FsyncPolicy wal.Policy
	// SnapshotEvery is the per-shard journal record count between snapshots.
	// 0 means DefaultSnapshotEvery.
	SnapshotEvery int
	// Regions partitions the shards into contiguous groups with asynchronous
	// cross-region replication between them (see replicate.go). Values ≤ 1
	// disable replication; Validate refuses values above Shards.
	Regions int
	// ReplicationDelay is how many replication ticks a record waits in its
	// shard's replication log after the tick that seals it. 0 applies records
	// on the tick that seals them. Validate refuses it unless Regions > 1.
	ReplicationDelay int
	// EventualReads serves cross-region reads from the reader region's
	// replica (possibly stale) instead of the owner shard. The default is
	// read-your-writes: cross-region reads go to the owner unless its region
	// is down. Validate refuses it unless Regions > 1.
	EventualReads bool
}

// defaultShards is the shard count of a config that sets none (the paper's
// deployment).
const defaultShards = 10

// Validate rejects a config with a negative count, with a knob that
// only means something beside a knob that is off, or with more regions than
// shards to hold them: settings Open would otherwise ignore or clamp
// silently. Zero keeps meaning "default". Each error names the offending
// field. Open calls it first.
func (cfg Config) Validate() error {
	switch {
	case cfg.Shards < 0:
		return fmt.Errorf("metadata: negative Shards %d", cfg.Shards)
	case cfg.SnapshotEvery < 0:
		return fmt.Errorf("metadata: negative SnapshotEvery %d", cfg.SnapshotEvery)
	case cfg.ReplicationDelay < 0:
		return fmt.Errorf("metadata: negative ReplicationDelay %d", cfg.ReplicationDelay)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = defaultShards
	}
	if cfg.Durability == "" {
		switch {
		case cfg.FsyncPolicy != wal.FsyncPerOp:
			return fmt.Errorf("metadata: FsyncPolicy %v set without Durability", cfg.FsyncPolicy)
		case cfg.SnapshotEvery != 0:
			return fmt.Errorf("metadata: SnapshotEvery %d set without Durability", cfg.SnapshotEvery)
		case cfg.FS != nil:
			return fmt.Errorf("metadata: FS set without Durability")
		}
	}
	if cfg.Regions <= 1 {
		switch {
		case cfg.ReplicationDelay != 0:
			return fmt.Errorf("metadata: ReplicationDelay %d set with Regions %d (needs > 1)", cfg.ReplicationDelay, cfg.Regions)
		case cfg.EventualReads:
			return fmt.Errorf("metadata: EventualReads set with Regions %d (needs > 1)", cfg.Regions)
		}
	}
	if cfg.Regions > shards {
		return fmt.Errorf("metadata: Regions %d exceeds the %d shards", cfg.Regions, shards)
	}
	return nil
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
	shards []*shard
	m      storeMetrics

	// dur is the durable tier (per-shard journal + snapshot); nil for
	// in-memory stores.
	dur *durability

	// repl is the cross-region replication tier (see replicate.go); nil with
	// a single region.
	repl *replication

	derived // volume directory, incoming shares, content refs, ID allocators

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
// recovers every shard from its snapshot plus journal, and builds every peer
// region's replica from its recovered owner, before returning. The
// error is non-nil for a config Validate refuses and for durable stores
// whose on-disk state cannot be opened.
func Open(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.DeltaLogLimit == 0 {
		cfg.DeltaLogLimit = DefaultDeltaLogLimit
	}
	s := &Store{
		shards: make([]*shard, cfg.Shards),
		m: storeMetrics{
			deltaServed:    cfg.Metrics.Counter(metrics.MetaDeltaServed),
			deltaTruncated: cfg.Metrics.Counter(metrics.MetaDeltaTruncated),
			fromScratch:    cfg.Metrics.Counter(metrics.MetaGetFromScratch),
			logTrimmed:     cfg.Metrics.Counter(metrics.MetaDeltaLogTrimmed),
		},
	}
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg.DeltaLogLimit, cfg.Metrics)
	}
	if cfg.Regions > 1 {
		s.repl = newReplication(cfg, cfg.Metrics)
	}
	if cfg.Durability != "" {
		if err := s.openDurability(cfg, cfg.Metrics); err != nil {
			return nil, err
		}
		for i := range s.shards {
			s.rewindReplicas(i)
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
		reads[i], writes[i] = sh.Loads()
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

// shard is one master/slave pair of the cluster. Its ShardLock models the
// paper's access pattern — reads in parallel on the slave, writes serialized
// on the master — and counts and times every client acquisition.
type shard struct {
	id            int
	deltaLogLimit int

	metrics.ShardLock
	users      map[protocol.UserID]*userRow
	volumes    map[protocol.VolumeID]*volumeRow
	nodes      *nodeTable
	shares     map[protocol.ShareID]*protocol.ShareInfo
	uploadjobs map[protocol.UploadID]*UploadJob

	// revoked tombstones, on a replica shard, the grants its owner revoked
	// that have not ripened here yet (revokeCrossRegion); owner shards observe
	// revocations under their own write lock and need none. reset clears it:
	// a restored replica grants what its owner grants.
	revoked     map[protocol.ShareID]struct{}
	revokedHits *metrics.Counter

	// logScratch encodes a delta-log entry under the write lock before
	// appendLog copies it onto its volume's log.
	logScratch wire.Writer
}

func newShard(id, deltaLogLimit int, reg *metrics.Registry) *shard {
	sh := &shard{
		id:            id,
		deltaLogLimit: deltaLogLimit,
		ShardLock:     metrics.NewShardLock(reg, metrics.Shard(id)),
	}
	sh.reset()
	return sh
}

// reset empties the shard: construction, a crash and a region restore all
// start from here.
func (sh *shard) reset() {
	sh.users = make(map[protocol.UserID]*userRow)
	sh.volumes = make(map[protocol.VolumeID]*volumeRow)
	sh.nodes = newNodeTable()
	sh.shares = make(map[protocol.ShareID]*protocol.ShareInfo)
	sh.uploadjobs = make(map[protocol.UploadID]*UploadJob)
	sh.revoked = nil
}

// stripedMap is a map behind striped read-write locks, for the store-level
// derived state every routed request reads. sync.Map pays ~100 bytes of trie
// nodes plus two boxed interfaces per entry where a plain map entry is 16
// bytes — tens of megabytes at millions of volumes — and the striped locks
// keep the read path uncontended. Maps materialize on first store, so a zero
// value works without a constructor.
type stripedMap[K ~uint64, V any] struct {
	stripes [16]stripe[K, V]
}

type stripe[K ~uint64, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

func (d *stripedMap[K, V]) stripe(k K) *stripe[K, V] {
	return &d.stripes[uint64(k)%uint64(len(d.stripes))]
}

func (d *stripedMap[K, V]) load(k K) (V, bool) {
	st := d.stripe(k)
	st.mu.RLock()
	v, ok := st.m[k]
	st.mu.RUnlock()
	return v, ok
}

func (d *stripedMap[K, V]) store(k K, v V) {
	d.update(k, func(V) (V, bool) { return v, true })
}

func (d *stripedMap[K, V]) delete(k K) {
	d.update(k, func(v V) (V, bool) { return v, false })
}

// update sets k to f of its value (the zero V when absent) under k's stripe
// lock, or deletes k when f reports false.
func (d *stripedMap[K, V]) update(k K, f func(V) (V, bool)) {
	st := d.stripe(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	v, keep := f(st.m[k])
	if !keep {
		delete(st.m, k)
		return
	}
	if st.m == nil {
		st.m = make(map[K]V)
	}
	st.m[k] = v
}

// shareRef is one share a grantee holds: its ID and the owner whose shard
// keeps its row.
type shareRef struct {
	id    protocol.ShareID
	owner protocol.UserID
}

type userRow struct {
	id   protocol.UserID
	root protocol.VolumeID
	// volumes owned by this user, including the root volume. A slice, not a
	// set: users own a handful of volumes, and a one-entry map per user is
	// ~200 bytes of buckets at million-user populations. Order is insertion
	// order; consumers sort where output order matters. The user's outgoing
	// shares are their grants.
	volumes []protocol.VolumeID
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

type volumeRow struct {
	info protocol.VolumeInfo
	root protocol.NodeID
	// log is the volume's delta log, nil until its first entry: a volume
	// without history, and every volume of a store with the logs disabled,
	// pays one pointer for it, where two inline slices would push every row
	// up a size class.
	log *deltaLog
	// droppedThrough is the highest generation whose log entries may have
	// been discarded; GetDelta can only serve fromGen ≥ droppedThrough.
	droppedThrough protocol.Generation
	// grants maps grantee user to the share id, for permission checks on
	// shared volumes; nil until the first grant — most volumes are never
	// shared, and an empty map per volume is real memory at million-user
	// populations.
	grants map[protocol.UserID]protocol.ShareID
}

// deltaLog holds a volume's recent mutations back to back in buf, each the
// bytes the snapshot stores for it (encodeLogEntry), and each entry's start
// offset in at. Generations never decrease along the log, because apply
// only raises a volume's generation, so volumeRow.delta binary-searches at.
// Both slices are pointer-free: the collector never scans them.
type deltaLog struct {
	buf []byte
	at  []uint32
}

// entries returns the log's bytes and offsets; a nil log has none.
func (l *deltaLog) entries() (buf []byte, at []uint32) {
	if l == nil {
		return nil, nil
	}
	return l.buf, l.at
}

// gen returns the generation of the i-th entry, its leading uvarint.
func (l *deltaLog) gen(i int) protocol.Generation {
	gen, _ := binary.Uvarint(l.buf[l.at[i]:])
	return protocol.Generation(gen)
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
		// The children go straight onto the list, sorted in place there.
		base := len(ids)
		ids = sh.nodes.appendChildren(ids, ids[i])
		slices.Sort(ids[base:])
	}
	return ids
}

// appendLog records a mutation in v's delta log, encoding it on scratch,
// trimming the oldest half when the log exceeds limit entries, and reports
// whether it trimmed. Only shard.apply calls it, under the shard's write
// lock.
func (v *volumeRow) appendLog(limit int, scratch *wire.Writer, n protocol.NodeInfo, deleted bool) (trimmed bool) {
	if limit < 0 {
		// Log disabled: record only the horizon so GetDelta reports
		// truncation and clients rescan. No entry is retained.
		v.droppedThrough = v.info.Generation
		return false
	}
	if v.log == nil {
		v.log = new(deltaLog)
	}
	l := v.log
	if uint64(len(l.buf)) > math.MaxUint32 {
		// The entry's offset would not fit at: the log starts over, its
		// horizon past everything it held.
		v.droppedThrough = l.gen(len(l.at) - 1)
		l.buf, l.at = l.buf[:0], l.at[:0]
	}
	scratch.Reset()
	encodeLogEntry(scratch, v.info.Generation, n, deleted)
	l.at = append(l.at, uint32(len(l.buf)))
	l.buf = append(l.buf, scratch.Bytes()...)
	if len(l.at) <= limit {
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
	v.droppedThrough = l.gen(drop - 1)
	// Trim in place, so a volume's log is allocated once and refilled, not
	// re-allocated at every trim.
	cut := l.at[drop]
	l.buf = l.buf[:copy(l.buf, l.buf[cut:])]
	l.at = l.at[:copy(l.at, l.at[drop:])]
	for i := range l.at {
		l.at[i] -= cut
	}
	return true
}

// delta answers GetDelta from v's log: nothing when fromGen is current,
// ErrDeltaTruncated when the log no longer reaches back to fromGen, and
// otherwise every entry after fromGen in log order, copied in its wire form
// (the log's entry without its leading generation) into one pooled buffer
// the list owns. Caller holds the shard's read lock, so the copy is taken
// before any later trim moves the log.
func (v *volumeRow) delta(fromGen protocol.Generation) (protocol.DeltaList, error) {
	if fromGen >= v.info.Generation {
		return protocol.DeltaList{}, nil
	}
	// The log can serve the request only if nothing after fromGen was
	// discarded by the retention policy.
	if fromGen < v.droppedThrough {
		return protocol.DeltaList{}, ErrDeltaTruncated
	}
	buf, at := v.log.entries()
	first := sort.Search(len(at), func(i int) bool { return v.log.gen(i) > fromGen })
	if first == len(at) {
		return protocol.DeltaList{}, nil
	}
	var out protocol.DeltaWriter
	out.Start(len(buf) - int(at[first]))
	for i := first; i < len(at); i++ {
		end := len(buf)
		if i+1 < len(at) {
			end = int(at[i+1])
		}
		_, genLen := binary.Uvarint(buf[at[i]:])
		out.AddEncoded(buf[int(at[i])+genLen : end])
	}
	return out.List(), nil
}
