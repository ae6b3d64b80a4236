package metadata

import (
	"bytes"
	"fmt"
	"sync"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wal"
	"u1/internal/wire"
)

// Asynchronous cross-region metadata replication, as a log. Shards partition
// into contiguous regions. Every mutation commits at the owning region as one
// journal record (durable.go), and commit encodes that record onto the tail of
// the owning shard's replication log under the write lock that applied it —
// the same bytes the journal writes (codec.go) — so an acknowledged write is
// already where the peers read it. The log lives in memory, not in the WAL:
// in-memory stores replicate too, and the WAL drops segments at snapshots on
// a cadence that has nothing to do with peer progress.
//
// Each replication tick (TickReplication, run by server.Cluster.Tick, or by a
// test or drill directly) advances the epoch, seals every log's tail as one
// segment stamped with it, and makes one apply pass: each region reads each
// foreign shard's log through its own cursor and applies the segments that
// have aged ReplicationDelay ticks, record by record, through the same
// shard.apply the owner ran. Every record
// reaches every peer once, in owner order, so a drained replica equals its
// owner and needs no conflict rule: applyLocked panics on a record that could
// only come from a diverged replica. Replicas start equal to their owners,
// and Open and RecoverShard rewind them to the owners they recover.
//
// Reads resolve through readShardFor: same-region reads always hit the owner
// shard; cross-region reads go to the owner under read-your-writes (the
// default) or to the reader region's replica under eventual reads — and
// always to the replica when the owner region is down.
//
// Determinism (in simulation): records join an epoch by the virtual time of
// the mutation, so for a fixed (Seed, Workers, Regions) the segments, applied
// counts and stale-read decisions are identical regardless of goroutine
// interleaving. Replica state between ticks is frozen, so mid-epoch replica
// reads are deterministic too.

// replMetrics is the repl.* instrumentation of the replication tier.
type replMetrics struct {
	published    *metrics.Counter
	applied      *metrics.Counter
	revokedHits  *metrics.Counter
	readsLocal   *metrics.Counter
	readsRemote  *metrics.Counter
	readsStale   *metrics.Counter
	backlogDepth *metrics.Gauge
	lagEpochs    *metrics.Histogram
}

// replLog is one owner shard's replication log: the records committed since
// the last seal (the tail, guarded by mu), and the sealed segments some peer
// region has not read yet, oldest first (guarded by replication.mu). A cursor
// counts the segments a region has read, so segs[k] is segment first+k.
type replLog struct {
	mu   sync.Mutex
	tail wire.Writer
	n    int // records in the tail

	segs  []logSegment
	first int
	// free holds the buffers of read segments for the next seals, so a
	// steady tick allocates nothing.
	free []wire.Writer
}

// logSegment is the records one tick sealed: n of them, encoded back to back,
// ripening together ReplicationDelay ticks after epoch.
type logSegment struct {
	recs  wire.Writer
	n     int
	epoch uint64
}

// maxKeptLog bounds the segment buffer a log keeps for reuse, so one burst of
// commits does not stay allocated for the life of the store.
const maxKeptLog = 64 << 10

// append encodes rec onto the tail and appends those bytes to journal, if
// any, first: a record the journal refuses is cut back off the tail, so no
// peer reads a record its owner did not keep.
func (l *replLog) append(rec *journalRecord, journal *wal.Log) (lsn uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := len(l.tail.Bytes())
	encodeRecord(&l.tail, rec)
	if journal != nil {
		if lsn, err = journal.Append(l.tail.Bytes()[start:]); err != nil {
			l.tail.Truncate(start)
			return 0, err
		}
	}
	l.n++
	return lsn, nil
}

// seal closes a non-empty tail as one segment stamped with epoch. Runs under
// replication.mu.
func (l *replLog) seal(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n > 0 {
		l.segs = append(l.segs, logSegment{recs: l.tail, n: l.n, epoch: epoch})
		l.tail, l.n = wire.Writer{}, 0
		if k := len(l.free) - 1; k >= 0 {
			l.tail, l.free = l.free[k], l.free[:k]
		}
	}
}

// trim drops the segments before segment to, keeping their buffers for the
// next seals unless one outgrew maxKeptLog. Runs under replication.mu.
func (l *replLog) trim(to int) {
	k := to - l.first
	for _, seg := range l.segs[:k] {
		if cap(seg.recs.Bytes()) <= maxKeptLog {
			seg.recs.Reset()
			l.free = append(l.free, seg.recs)
		}
	}
	kept := copy(l.segs, l.segs[k:])
	clear(l.segs[kept:])
	l.segs = l.segs[:kept]
	l.first = to
}

// end is the number of segments ever sealed: a cursor there has read them all.
func (l *replLog) end() int { return l.first + len(l.segs) }

// regionState is one region's replication-side state.
type regionState struct {
	// replicas holds this region's replica of every shard owned by another
	// region; nil entries are this region's own shards (the owner copy is
	// local). Replica shards register no metrics so replication traffic never
	// pollutes the owner shards' load counters.
	replicas []*shard
	// cursor counts, per owning shard, the segments of its log this region
	// has applied. A region is stale on a shard while its cursor is short of
	// the log's end; that moves only at ticks, failover and recovery.
	cursor []int
	// down marks the region failed: writes owned by it are refused, reads
	// fail over to peer replicas.
	down bool
}

// replication is the store's cross-region state; nil with a single region.
// Lock order: an owner shard, then a region guard's r.mu read lock, then a
// log's tail, then the shard's journal; r.mu, then a log's tail or a replica
// shard. Nothing takes r.mu holding a log's tail or a replica shard, and a
// tick takes no owner shard, so ticks run beside commits and reads.
type replication struct {
	regions  int
	delay    int
	eventual bool
	m        replMetrics

	// logs is per owner shard.
	logs []*replLog
	// rec is the record every segment decodes into, one at a time; guarded
	// by mu.
	rec journalRecord

	// mu guards epoch, the sealed part of every log, and each region's
	// cursors and down flag. Mutations happen at replication ticks and on
	// the explicit down/recover transitions; request-path readers take the
	// read lock.
	mu    sync.RWMutex
	epoch uint64
	state []*regionState
}

func newReplication(cfg Config, reg *metrics.Registry) *replication {
	r := &replication{
		regions:  cfg.Regions,
		delay:    cfg.ReplicationDelay,
		eventual: cfg.EventualReads,
		logs:     make([]*replLog, cfg.Shards),
		state:    make([]*regionState, cfg.Regions),
		m: replMetrics{
			published:    reg.Counter(metrics.ReplPublished),
			applied:      reg.Counter(metrics.ReplApplied),
			revokedHits:  reg.Counter(metrics.ReplRevokedBlocked),
			readsLocal:   reg.Counter(metrics.ReplReadsLocal),
			readsRemote:  reg.Counter(metrics.ReplReadsRemote),
			readsStale:   reg.Counter(metrics.ReplReadsStale),
			backlogDepth: reg.Gauge(metrics.ReplBacklogDepth),
			lagEpochs:    reg.Histogram(metrics.ReplLagEpochs),
		},
	}
	for i := range r.logs {
		r.logs[i] = &replLog{}
	}
	for region := range r.state {
		st := &regionState{replicas: make([]*shard, cfg.Shards), cursor: make([]int, cfg.Shards)}
		for i := 0; i < cfg.Shards; i++ {
			if r.regionOf(i) != region {
				st.replicas[i] = newShard(i, cfg.DeltaLogLimit, nil)
				st.replicas[i].revokedHits = r.m.revokedHits
			}
		}
		r.state[region] = st
	}
	return r
}

// regionOf maps a shard index to its contiguous region: region r owns shards
// [r·S/R, (r+1)·S/R), so groups are contiguous and sized within one of each
// other.
func (r *replication) regionOf(shard int) int {
	return shard * r.regions / len(r.logs)
}

// Regions returns the configured region count (1 without replication).
func (s *Store) Regions() int {
	if s.repl == nil {
		return 1
	}
	return s.repl.regions
}

// RegionOf returns the region owning shard i (0 without replication).
func (s *Store) RegionOf(i int) int {
	if s.repl == nil {
		return 0
	}
	return s.repl.regionOf(i)
}

// RegionOfUser returns the region owning the user's metadata.
func (s *Store) RegionOfUser(user protocol.UserID) int {
	return s.RegionOf(s.ShardFor(user))
}

// sealLocked seals every log's tail as one segment stamped with the current
// epoch.
func (r *replication) sealLocked() {
	for _, l := range r.logs {
		l.seal(r.epoch)
	}
}

// catchUpLocked applies to st's replicas, per foreign shard in index order,
// the sealed segments past st's cursor — those aged at least the configured
// delay, or, with all, every one — decoding their records one at a time into
// r.rec. The bytes are the owner's own encoding, so a record that does not
// decode is a broken invariant.
func (r *replication) catchUpLocked(st *regionState, all bool) {
	for i, l := range r.logs {
		if st.replicas[i] == nil {
			continue
		}
		for k := st.cursor[i] - l.first; k < len(l.segs); k++ {
			seg := &l.segs[k]
			if !all && seg.epoch+uint64(r.delay) > r.epoch {
				break // stamps are non-decreasing: the rest is younger
			}
			rd := wire.NewReader(seg.recs.Bytes())
			for j := 0; j < seg.n; j++ {
				if err := decodeRecord(rd, &r.rec); err != nil {
					panic(fmt.Sprintf("metadata: replication log of shard %d, record %d: %v", i, j, err))
				}
				r.applyLocked(st.replicas[i], seg.epoch, &r.rec)
			}
			if n := rd.Remaining(); n != 0 {
				panic(fmt.Sprintf("metadata: replication log of shard %d: %d bytes after a segment's %d records", i, n, seg.n))
			}
			st.cursor[i]++
		}
	}
}

// trimLocked drops from every log the segments every peer region has read,
// then sets repl.backlog.depth to the sealed records, not segments, some
// region has still to apply.
func (r *replication) trimLocked() {
	var depth int64
	for i, l := range r.logs {
		to := l.end()
		for region, st := range r.state {
			if region != r.regionOf(i) {
				to = min(to, st.cursor[i])
				for _, seg := range l.segs[st.cursor[i]-l.first:] {
					depth += int64(seg.n)
				}
			}
		}
		l.trim(to)
	}
	r.m.backlogDepth.Set(depth)
}

// applyLocked applies one record, sealed at epoch, to the replica sh. The
// record is the replica's next one, so it panics, naming the shard and the
// record, on a node-bearing record that does not advance its volume's
// generation and on a volume created twice. Tombstoned revocations clear once
// the revoking record itself arrives.
func (r *replication) applyLocked(sh *shard, epoch uint64, rec *journalRecord) {
	// Replication traffic is not client load; the repl.* series count it.
	sh.LockUncounted()
	defer sh.UnlockUncounted()
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		if _, dup := sh.volumes[rec.Volume.ID]; dup {
			panic(fmt.Sprintf("metadata: replica of shard %d diverged: %s record %+v creates volume %d, which it holds", sh.id, rec.Kind, *rec, rec.Volume.ID))
		}
	case recMakeNode, recMakeContent, recMove:
		requireAdvance(sh, rec, rec.Node.Volume, rec.Node.Generation)
	case recUnlink:
		requireAdvance(sh, rec, rec.VolID, rec.Gen)
	case recDeleteVolume:
		if vr, ok := sh.volumes[rec.VolID]; ok {
			for _, shareID := range vr.grants {
				delete(sh.revoked, shareID)
			}
		}
	}
	sh.apply(rec, nil)
	r.m.applied.Inc()
	r.m.lagEpochs.Observe(float64(r.epoch - epoch))
}

// requireAdvance panics unless rec moves volume vol, where replica sh holds
// it, past the generation sh has.
func requireAdvance(sh *shard, rec *journalRecord, vol protocol.VolumeID, gen protocol.Generation) {
	if vr, ok := sh.volumes[vol]; ok && gen <= vr.info.Generation {
		panic(fmt.Sprintf("metadata: replica of shard %d diverged: %s record %+v sets volume %d to generation %d, not past its %d",
			sh.id, rec.Kind, *rec, vol, gen, vr.info.Generation))
	}
}

// TickReplication is the replication tick: advance the epoch, seal every
// log's tail as one segment stamped with it, make one apply pass over every
// region's ripe segments — at delay 0 that includes the ones just sealed —
// and drop what every peer has read. It takes no owner shard, so a TCP
// cluster's ticker runs it beside commits and eventual reads.
func (s *Store) TickReplication() {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch++
	r.sealLocked()
	for _, st := range r.state {
		r.catchUpLocked(st, false)
	}
	r.trimLocked()
}

// DrainReplication ticks until no region has a record left to apply — the
// quiesce-and-converge helper tests and drills use before comparing
// fingerprints.
func (s *Store) DrainReplication() {
	if s.repl == nil {
		return
	}
	for i := 0; i <= s.repl.delay+1; i++ {
		s.TickReplication()
		if s.repl.m.backlogDepth.Value() == 0 {
			return
		}
	}
}

// RegionDown marks a region failed: mutations owned by it are refused with
// ErrUnavailable and cross-region reads of its shards fail over to the
// reader region's replicas. Idempotent.
func (s *Store) RegionDown(region int) {
	if s.repl == nil {
		return
	}
	s.repl.mu.Lock()
	s.repl.state[region].down = true
	s.repl.mu.Unlock()
}

// FailoverRegion promotes region at's replicas to the head of every owner's
// log — the failover step after a peer region dies. It seals every log's
// tail at the current epoch and applies every segment past at's cursors,
// delay ignored. A write is in the log before it acknowledges, so no
// acknowledged write is lost, and failover touches no owner shard, so
// nothing the dead region kept matters.
func (s *Store) FailoverRegion(at int) {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.catchUpLocked(r.state[at], true)
	r.trimLocked()
}

// RegionRecover restores a downed region from a surviving peer: the peer
// fast-forwards its replicas (FailoverRegion), every owner shard of the dead
// region is rebuilt from the peer's replica (copyShard), swapping its part of
// derived state while the other shards serve, and the region rejoins.
// Uploadjobs are transient and lost with the region, exactly as in a shard
// crash.
func (s *Store) RegionRecover(region, from int) {
	r := s.repl
	if r == nil {
		return
	}
	s.FailoverRegion(from)
	r.mu.RLock()
	peer := r.state[from]
	r.mu.RUnlock()
	for i, sh := range s.shards {
		if r.regionOf(i) == region {
			copyShard(peer.replicas[i], &s.derived, sh)
		}
	}
	r.mu.Lock()
	r.state[region].down = false
	r.mu.Unlock()
}

// rewindReplicas makes every peer region's replica of shard i a copy of its
// owner, tombstones cleared, and drops the shard's unread log. Open calls it
// for every shard of a reopened durable store and RecoverShard for the shard
// it recovered: a replica may be ahead of an owner that lost unsynced
// records, but only until that owner recovers (PostgreSQL's pg_rewind).
func (s *Store) rewindReplicas(i int) {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	l := r.logs[i]
	l.mu.Lock()
	l.tail.Reset()
	l.n = 0
	l.mu.Unlock()
	var replicas []*shard
	for region, st := range r.state {
		if region != r.regionOf(i) {
			st.cursor[i] = l.end()
			replicas = append(replicas, st.replicas[i])
		}
	}
	r.trimLocked()
	r.mu.Unlock()
	copyShard(s.shards[i], nil, replicas...)
}

// copyShard makes each of dsts a copy of src through the snapshot file's
// own codec: src is encoded once, as a snapshot body, and decoded into each
// by d.replace — nil d for replicas, the store's derived state for owners.
// A restore moves state wholesale; neither side is client load.
func copyShard(src *shard, d *derived, dsts ...*shard) {
	var snap bytes.Buffer
	src.RLockUncounted()
	err := writeSnapshot(&snap, src, 0)
	src.RUnlockUncounted()
	for _, dst := range dsts {
		if err == nil {
			err = d.replace(dst, func() error { _, err := readSnapshot(dst, snap.Bytes()); return err })
		}
		if err != nil {
			panic(fmt.Sprintf("metadata: copying shard %d: %v", src.id, err))
		}
	}
}

// ReplicaFingerprint digests region's replica of shard i the way
// ShardFingerprint digests the owner: bit-for-bit equality of the two is the
// zero-loss half of the region drill. For the region's own shards it returns
// the owner fingerprint.
func (s *Store) ReplicaFingerprint(region, i int) string {
	r := s.repl
	if r == nil || r.regionOf(i) == region {
		return s.ShardFingerprint(i)
	}
	r.mu.RLock()
	sh := r.state[region].replicas[i]
	r.mu.RUnlock()
	return fingerprint(sh)
}

// writeGuard refuses mutations owned by a downed region. Nil without
// replication or while every region serves.
func (s *Store) writeGuard(owner protocol.UserID) error {
	r := s.repl
	if r == nil {
		return nil
	}
	region := r.regionOf(s.ShardFor(owner))
	r.mu.RLock()
	down := r.state[region].down
	r.mu.RUnlock()
	if down {
		return fmt.Errorf("%w: metadata region %d is down", protocol.ErrUnavailable, region)
	}
	return nil
}

// WriteUnavailable reports whether a mutation on vol would be refused because
// its owning region is down — the API tier's region-routing probe
// (apiserver.RegionRouter).
func (s *Store) WriteUnavailable(vol protocol.VolumeID) bool {
	if s.repl == nil {
		return false
	}
	owner, err := s.ownerOf(vol)
	if err != nil {
		return false // let the handler produce the authoritative error
	}
	return s.writeGuard(owner) != nil
}

// readShardFor routes a read of owner's metadata on behalf of user: reads
// whose owner lives in the reader's region always hit the owner shard;
// cross-region reads hit the owner under read-your-writes or the reader
// region's replica under eventual reads, counting staleness when the reader
// region has sealed records of that shard still to apply. A down owner region
// always fails over to the reader's replica.
func (s *Store) readShardFor(user, owner protocol.UserID) *shard {
	oShard := s.ShardFor(owner)
	r := s.repl
	if r == nil {
		return s.shards[oShard]
	}
	oRegion := r.regionOf(oShard)
	uRegion := r.regionOf(s.ShardFor(user))
	if uRegion == oRegion {
		return s.shards[oShard]
	}
	r.mu.RLock()
	down := r.state[oRegion].down
	stale := r.state[uRegion].cursor[oShard] < r.logs[oShard].end()
	r.mu.RUnlock()
	if !down && !r.eventual {
		r.m.readsRemote.Inc()
		return s.shards[oShard]
	}
	r.m.readsLocal.Inc()
	if stale {
		r.m.readsStale.Inc()
	}
	return r.state[uRegion].replicas[oShard]
}

// revokeCrossRegion eagerly tombstones the grants of a volume deleted on
// owner shard in every peer region's replica of that shard, so replica-side
// access checks refuse them before the delete record ripens in the log —
// without it, a cross-region grantee could keep reading through its region's
// replicated grant index for the whole replication delay (and a create_share
// record not yet applied could even resurrect the grant in between).
func (s *Store) revokeCrossRegion(shard int, grants map[protocol.UserID]protocol.ShareID) {
	if s.repl == nil || len(grants) == 0 {
		return
	}
	for _, st := range s.repl.state {
		replica := st.replicas[shard]
		if replica == nil {
			continue // the owner's own region
		}
		replica.LockUncounted()
		if replica.revoked == nil {
			replica.revoked = make(map[protocol.ShareID]struct{}, len(grants))
		}
		for _, id := range grants {
			replica.revoked[id] = struct{}{}
		}
		replica.UnlockUncounted()
	}
}
