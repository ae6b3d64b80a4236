package metadata

import (
	"bytes"
	"fmt"
	"sync"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wire"
)

// Asynchronous cross-region metadata replication. Shards partition into
// contiguous regions. Every mutation commits at the owning region as one
// journal record (durable.go), and commit encodes that record onto the tail
// of the owning shard's replication outbox under the write lock that applied
// it — the same bytes the journal writes (codec.go). A replica decodes each
// record and applies it through the same shard.apply the owner ran, in outbox
// order, which is apply order, so a drained replica equals its owner — the
// invariant the region drill's fingerprint comparison enforces.
//
// Shipping is epoch-batched. Each replication tick (TickReplication: an
// AtEpochEnd hook of the sharded engine in simulation, a direct call from a
// harness or drill) advances the epoch, applies every region's ripe backlog,
// ships each outbox — the encoded records published since the last tick — as
// one batch into every peer region's backlog stamped with the new epoch, and
// applies again. The peers share that batch read-only; nothing is copied per
// record or per peer. A batch applies to the peer's replica shards, record by
// record, once it has aged ReplicationDelay ticks; its records share one
// epoch, so it ripens whole. Reads resolve through readShardFor: same-region
// reads always hit the owner shard; cross-region reads go to the owner under
// read-your-writes (the default) or to the reader region's replica under
// eventual reads — and always to the replica when the owner region is down.
//
// Conflict rule: cross-region writes on shared volumes resolve by
// (generation, region-id) last-writer-wins — a node-bearing record applies
// only if it advances the replica volume's generation, and generation ties go
// to the higher origin region. The same guard makes re-delivery idempotent,
// which is what lets failover replay a region's entire backlog
// unconditionally.
//
// Determinism: records join an epoch by the virtual time of the mutation, so
// for a fixed (Seed, Workers, Regions) the per-tick batch contents, backlog
// depths, applied counts and stale-read decisions are identical regardless of
// goroutine interleaving. Replica state between ticks is frozen, so mid-epoch
// replica reads are deterministic too.

// replMetrics is the repl.* instrumentation of the replication tier.
type replMetrics struct {
	published    *metrics.Counter
	applied      *metrics.Counter
	lwwSkipped   *metrics.Counter
	revokedHits  *metrics.Counter
	readsLocal   *metrics.Counter
	readsRemote  *metrics.Counter
	readsStale   *metrics.Counter
	backlogDepth *metrics.Gauge
	lagEpochs    *metrics.Histogram
}

// outbox is one owner shard's publication buffer: the records committed since
// the last ship, encoded back to back, and how many there are.
type outbox struct {
	w wire.Writer
	n int
}

// maxKeptOutbox bounds the buffer an outbox keeps from one tick to the next,
// so one burst of commits does not stay allocated for the life of the store.
const maxKeptOutbox = 64 << 10

// replBatch is one backlog entry: one owner shard's outbox as shipped — n
// encoded records — and the tick that shipped it. Every peer region's backlog
// holds the same batch; none writes to it.
type replBatch struct {
	shard int
	epoch uint64
	recs  []byte
	n     int
}

// regionState is one region's replication-side state.
type regionState struct {
	// replicas holds this region's replica of every shard owned by another
	// region; nil entries are this region's own shards (the owner copy is
	// local). Replica shards register no metrics so replication traffic never
	// pollutes the owner shards' load counters.
	replicas []*shard
	// backlog holds delivered, not-yet-applied batches in arrival order;
	// publication epochs are non-decreasing along it, so ripe batches always
	// form a prefix.
	backlog []replBatch
	// pending counts backlog records per owning shard — the per-shard
	// staleness signal readShardFor consults.
	pending []int
	// lastOrigin tracks, per volume, the origin region of the last applied
	// node-bearing record: the region-id half of the LWW conflict rule.
	lastOrigin map[protocol.VolumeID]int
	// revoked is the eagerly flushed share-revocation set: share ids whose
	// revocation was accepted at the owner but has not yet reached this
	// region's replicas. Replica-side access checks consult it so a revoked
	// cross-region grant stops authorizing immediately (the PR 4
	// DropCachedToken lesson applied to the metadata path index). Guarded by
	// revMu, not the replication mutex: the consult happens under a replica
	// shard's lock, which applyLocked acquires while holding r.mu — a shared
	// lock would invert that order and deadlock under concurrent traffic.
	revMu   sync.Mutex
	revoked map[protocol.ShareID]struct{}
	// down marks the region failed: writes owned by it are refused, reads
	// fail over to peer replicas.
	down bool
}

// replication is the store's cross-region state; nil with a single region.
type replication struct {
	regions  int
	delay    int
	eventual bool
	m        replMetrics

	// outbox is per owner shard, appended under that shard's write lock by
	// Store.commit and drained by ship under the same lock.
	outbox []outbox
	// rec is the record every backlog batch decodes into, one at a time;
	// guarded by mu.
	rec journalRecord

	// mu guards epoch, state backlogs/pending/revoked/down. Mutations happen
	// at replication ticks (traffic quiescent in simulation) and on the
	// explicit down/recover transitions; request-path readers take the read
	// lock.
	mu    sync.RWMutex
	epoch uint64
	state []*regionState
}

func newReplication(cfg Config, reg *metrics.Registry) *replication {
	r := &replication{
		regions:  cfg.Regions,
		delay:    cfg.ReplicationDelay,
		eventual: cfg.EventualReads,
		outbox:   make([]outbox, cfg.Shards),
		state:    make([]*regionState, cfg.Regions),
		m: replMetrics{
			published:    reg.Counter(metrics.ReplPublished),
			applied:      reg.Counter(metrics.ReplApplied),
			lwwSkipped:   reg.Counter(metrics.ReplLWWSkipped),
			revokedHits:  reg.Counter(metrics.ReplRevokedBlocked),
			readsLocal:   reg.Counter(metrics.ReplReadsLocal),
			readsRemote:  reg.Counter(metrics.ReplReadsRemote),
			readsStale:   reg.Counter(metrics.ReplReadsStale),
			backlogDepth: reg.Gauge(metrics.ReplBacklogDepth),
			lagEpochs:    reg.Histogram(metrics.ReplLagEpochs),
		},
	}
	for region := range r.state {
		st := &regionState{
			replicas:   make([]*shard, cfg.Shards),
			pending:    make([]int, cfg.Shards),
			lastOrigin: make(map[protocol.VolumeID]int),
			revoked:    make(map[protocol.ShareID]struct{}),
		}
		for i := 0; i < cfg.Shards; i++ {
			if r.regionOf(i) == region {
				continue
			}
			sh := newShard(i, cfg.DeltaLogLimit, nil)
			st := st
			sh.revoked = func(id protocol.ShareID) bool {
				st.revMu.Lock()
				_, gone := st.revoked[id]
				st.revMu.Unlock()
				if gone {
					r.m.revokedHits.Inc()
				}
				return gone
			}
			st.replicas[i] = sh
		}
		r.state[region] = st
	}
	return r
}

// regionOf maps a shard index to its contiguous region: region r owns shards
// [r·S/R, (r+1)·S/R), so groups are contiguous and sized within one of each
// other.
func (r *replication) regionOf(shard int) int {
	return shard * r.regions / len(r.outbox)
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

// ship drains every owner shard's publication outbox, as one batch, into each
// peer region's backlog, stamped with the current tick, in shard order.
func (s *Store) ship() {
	r := s.repl
	for i, sh := range s.shards {
		// The outbox is filled under the shard's write lock; draining it is
		// the replication tick, not client load.
		sh.LockUncounted()
		ob := &r.outbox[i]
		b := replBatch{shard: i, n: ob.n}
		if b.n > 0 {
			// One copy per batch; the outbox keeps its buffer for the next.
			b.recs = bytes.Clone(ob.w.Bytes())
			ob.w.Reset()
			ob.n = 0
			if cap(ob.w.Bytes()) > maxKeptOutbox {
				ob.w = wire.Writer{}
			}
		}
		sh.UnlockUncounted()
		if b.n == 0 {
			continue
		}
		r.mu.Lock()
		b.epoch = r.epoch
		for region, st := range r.state {
			if region == r.regionOf(i) {
				continue
			}
			st.backlog = append(st.backlog, b)
			st.pending[i] += b.n
		}
		r.mu.Unlock()
	}
}

// applyRipe applies each region's ripe backlog prefix — batches that have
// aged at least the configured delay — to its replica shards, then refreshes
// the backlog depth gauge.
func (r *replication) applyRipe() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.state {
		i := 0
		for ; i < len(st.backlog); i++ {
			b := &st.backlog[i]
			if b.epoch+uint64(r.delay) > r.epoch {
				break // publication epochs are non-decreasing: the rest is younger
			}
			r.applyBatchLocked(st, b)
		}
		kept := copy(st.backlog, st.backlog[i:])
		clear(st.backlog[kept:]) // drop the applied batches' buffers
		st.backlog = st.backlog[:kept]
	}
	r.refreshBacklogGaugeLocked()
}

// refreshBacklogGaugeLocked sets repl.backlog_depth to the records, not the
// batches, waiting in every region's backlog.
func (r *replication) refreshBacklogGaugeLocked() {
	var depth int64
	for _, st := range r.state {
		for i := range st.backlog {
			depth += int64(st.backlog[i].n)
		}
	}
	r.m.backlogDepth.Set(depth)
}

// applyBatchLocked decodes b's records one at a time into r.rec and applies
// each to its replica shard under r.mu. The bytes are the owner's own
// encoding, so a record that does not decode is a broken invariant.
func (r *replication) applyBatchLocked(st *regionState, b *replBatch) {
	rd := wire.NewReader(b.recs)
	for i := 0; i < b.n; i++ {
		if err := decodeRecord(rd, &r.rec); err != nil {
			panic(fmt.Sprintf("metadata: replication batch of shard %d, record %d: %v", b.shard, i, err))
		}
		r.applyLocked(st, b.shard, b.epoch, &r.rec)
	}
	if n := rd.Remaining(); n != 0 {
		panic(fmt.Sprintf("metadata: replication batch of shard %d: %d bytes after its %d records", b.shard, n, b.n))
	}
	st.pending[b.shard] -= b.n
}

// applyLocked applies one record of owner shard `shard`, shipped at epoch,
// to its replica shard under r.mu, guarded by the (generation, region-id) LWW
// rule. Tombstoned revocations clear once the revoking record itself arrives.
func (r *replication) applyLocked(st *regionState, shard int, epoch uint64, rec *journalRecord) {
	sh := st.replicas[shard]
	origin := r.regionOf(shard)
	// Replication traffic is not client load; the repl.* series count it.
	sh.LockUncounted()
	defer sh.UnlockUncounted()
	switch rec.Kind {
	case recDeleteVolume:
		if vr, ok := sh.volumes[rec.VolID]; ok {
			st.revMu.Lock()
			for _, shareID := range vr.grants {
				delete(st.revoked, shareID)
			}
			st.revMu.Unlock()
		}
		delete(st.lastOrigin, rec.VolID)
	case recDropShare:
		st.revMu.Lock()
		delete(st.revoked, rec.Share.ID)
		st.revMu.Unlock()
	}
	if !shouldApply(st, sh, rec, origin) {
		r.m.lwwSkipped.Inc()
		return
	}
	sh.apply(rec)
	switch rec.Kind {
	case recMakeNode, recMakeContent, recMove:
		st.lastOrigin[rec.Node.Volume] = origin
	case recUnlink:
		st.lastOrigin[rec.VolID] = origin
	}
	r.m.applied.Inc()
	r.m.lagEpochs.Observe(float64(r.epoch - epoch))
}

// shouldApply is the (generation, region-id) last-writer-wins guard: a
// node-bearing record applies only if it advances the replica volume's
// generation, with ties won by the higher origin region. Volume/share
// bookkeeping records are guarded for idempotence instead, so re-delivery
// (failover replays the whole backlog) never corrupts a replica.
func shouldApply(st *regionState, sh *shard, rec *journalRecord, origin int) bool {
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		_, dup := sh.volumes[rec.Volume.ID]
		return !dup
	case recMakeNode, recMakeContent, recMove:
		return genWins(st, sh, rec.Node.Volume, rec.Node.Generation, origin)
	case recUnlink:
		return genWins(st, sh, rec.VolID, rec.Gen, origin)
	}
	return true
}

func genWins(st *regionState, sh *shard, vol protocol.VolumeID, gen protocol.Generation, origin int) bool {
	vr, ok := sh.volumes[vol]
	if !ok {
		return true
	}
	if gen != vr.info.Generation {
		return gen > vr.info.Generation
	}
	return origin > st.lastOrigin[vol]
}

// TickReplication is the replication tick: advance the epoch, apply each
// region's ripe backlog, ship every outbox into the peer backlogs, then apply
// again — the second pass only finds work at delay 0, where a record ripens
// in the tick that ships it. Applying before shipping keeps the previous
// tick's records out of the backlog the new ones append to, so it does not
// grow and copy again. The simulator runs it as one AtEpochEnd hook; tests
// and drills call it directly, and a wall-clock pump would be a ticker
// calling it.
func (s *Store) TickReplication() {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	r.epoch++
	r.mu.Unlock()
	r.applyRipe()
	s.ship()
	r.applyRipe()
}

// DrainReplication ticks until every region's backlog is empty — the
// quiesce-and-converge helper tests and drills use before comparing
// fingerprints.
func (s *Store) DrainReplication() {
	if s.repl == nil {
		return
	}
	for i := 0; i <= s.repl.delay+1; i++ {
		s.TickReplication()
		s.repl.mu.RLock()
		depth := 0
		for _, st := range s.repl.state {
			depth += len(st.backlog)
		}
		s.repl.mu.RUnlock()
		if depth == 0 {
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

// FailoverRegion promotes region at's replicas to the head of the published
// stream by applying its entire backlog immediately, replication delay
// ignored — the failover step after a peer region dies. Every record the dead
// region published before dying is already in this backlog (publication
// happens under the mutation's own lock), so acknowledged owner-region writes
// survive with zero loss.
func (s *Store) FailoverRegion(at int) {
	r := s.repl
	if r == nil {
		return
	}
	// Ship anything still sitting in publication outboxes: a record is
	// published at ack time, so this is what makes "acked before the region
	// died" imply "present in the failover state". Peer regions receive their
	// copies too, with normal delay semantics.
	s.ship()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state[at]
	for i := range st.backlog {
		r.applyBatchLocked(st, &st.backlog[i])
	}
	st.backlog = nil
	r.refreshBacklogGaugeLocked()
}

// RegionRecover restores a downed region from a surviving peer: the peer
// fast-forwards its replicas (FailoverRegion), every owner shard of the dead
// region is rebuilt from the peer's replica — encoded as a snapshot and
// decoded into the owner, the snapshot file's own codec — derived store state
// is recomputed, and the region rejoins. Uploadjobs are transient and lost with
// the region, exactly as in a shard crash.
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
		if r.regionOf(i) != region {
			continue
		}
		replica := peer.replicas[i]
		var snap bytes.Buffer
		// A region drill moves state wholesale; neither side is client load.
		replica.RLockUncounted()
		err := writeSnapshot(&snap, replica, 0)
		replica.RUnlockUncounted()
		sh.LockUncounted()
		sh.reset()
		if err == nil {
			_, err = readSnapshot(sh, snap.Bytes())
		}
		sh.UnlockUncounted()
		if err != nil {
			panic(fmt.Sprintf("metadata: restoring shard %d from region %d: %v", i, from, err))
		}
	}
	s.rebuildDerived()
	r.mu.Lock()
	r.state[region].down = false
	r.mu.Unlock()
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
// region's replica under eventual reads, counting staleness when the replica
// still has backlog for that shard. A down owner region always fails over to
// the reader's replica.
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
	stale := r.state[uRegion].pending[oShard] > 0
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

// revokeCrossRegion eagerly tombstones a revoked share in every peer region,
// so replica-side access checks refuse the grant before the revoking record
// ages through the backlog — without it, a cross-region grantee could keep
// reading through the grantee region's cached grant index for the whole
// replication delay (and a create_share record still in the backlog could
// even resurrect the grant after the volume died).
func (s *Store) revokeCrossRegion(ownerRegion int, shareIDs []protocol.ShareID) {
	r := s.repl
	if r == nil || len(shareIDs) == 0 {
		return
	}
	for region, st := range r.state {
		if region == ownerRegion {
			continue
		}
		st.revMu.Lock()
		for _, id := range shareIDs {
			st.revoked[id] = struct{}{}
		}
		st.revMu.Unlock()
	}
}
