package metadata

import (
	"crypto/sha1"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"u1/internal/metrics"
	"u1/internal/protocol"
)

// Asynchronous cross-region metadata replication. Shards partition into
// contiguous regions; every mutation applies at the owning region (exactly as
// before) and additionally appends its journal record — the same
// journal-by-resulting-state encoding the WAL uses (durable.go) — to the
// owning shard's replication outbox, under the same write lock that applied
// the mutation. Outbox order is therefore apply order, and replaying a
// shard's record stream in order reconstructs the owner bit-for-bit, which is
// the invariant the region drill's fingerprint comparison enforces.
//
// Shipping is epoch-batched: each replication tick (driven by the sharded
// engine's mailbox barrier in simulation, or TickReplication from a harness)
// stamps the records published since the last tick and delivers them into
// every peer region's backlog; a backlog record applies to the peer's replica
// shards once it has aged ReplicationDelay ticks. Reads resolve through
// readShardFor: same-region reads always hit the owner shard; cross-region
// reads go to the owner under read-your-writes (the default) or to the
// reader region's replica under eventual reads — and always to the replica
// when the owner region is down.
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

// replRecord is one backlog entry: a journal record, its owning shard, and
// the tick at which it was published.
type replRecord struct {
	shard int
	epoch uint64
	rec   journalRecord
}

// ReplicationBatch is one shard's records published in one tick toward one
// peer region — the payload posted into that region's mailbox. Opaque outside
// the package: harnesses move batches, only the store reads them.
type ReplicationBatch struct {
	// Region is the destination region.
	Region  int
	shard   int
	epoch   uint64
	records []journalRecord
}

// regionState is one region's replication-side state.
type regionState struct {
	// replicas holds this region's replica of every shard owned by another
	// region; nil entries are this region's own shards (the owner copy is
	// local). Replica shards register no metrics so replication traffic never
	// pollutes the owner shards' load counters.
	replicas []*shard
	// backlog holds delivered, not-yet-applied records in arrival order;
	// publication epochs are non-decreasing along it, so ripe records always
	// form a prefix.
	backlog []replRecord
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
	// Store.journal and drained by CollectReplication under the same lock.
	outbox [][]journalRecord

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
		outbox:   make([][]journalRecord, cfg.Shards),
		state:    make([]*regionState, cfg.Regions),
		m: replMetrics{
			published:    reg.Counter(metrics.ReplicationPrefix + "published"),
			applied:      reg.Counter(metrics.ReplicationPrefix + "applied"),
			lwwSkipped:   reg.Counter(metrics.ReplicationPrefix + "lww_skipped"),
			revokedHits:  reg.Counter(metrics.ReplicationPrefix + "revoked_blocked"),
			readsLocal:   reg.Counter(metrics.ReplicationPrefix + "reads.local"),
			readsRemote:  reg.Counter(metrics.ReplicationPrefix + "reads.remote"),
			readsStale:   reg.Counter(metrics.ReplicationPrefix + "reads.stale"),
			backlogDepth: reg.Gauge(metrics.ReplicationPrefix + "backlog.depth"),
			lagEpochs:    reg.Histogram(metrics.ReplicationPrefix + "lag.epochs"),
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

// ReplicationEnabled reports whether the store replicates across regions.
func (s *Store) ReplicationEnabled() bool { return s.repl != nil }

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

// BeginReplicationEpoch opens a new replication tick and returns its index.
// Called once per epoch barrier, before CollectReplication.
func (s *Store) BeginReplicationEpoch() uint64 {
	r := s.repl
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.epoch++
	e := r.epoch
	r.mu.Unlock()
	return e
}

// CollectReplication drains every owner shard's outbox into per-peer-region
// batches, stamped with the current tick, in deterministic (region, shard)
// order. The simulation's pump mailbox posts each batch into its destination
// region's mailbox; TickReplication delivers them directly.
func (s *Store) CollectReplication() []ReplicationBatch {
	r := s.repl
	if r == nil {
		return nil
	}
	r.mu.RLock()
	epoch := r.epoch
	r.mu.RUnlock()
	var out []ReplicationBatch
	perShard := make([][]journalRecord, len(s.shards))
	for i, sh := range s.shards {
		//u1:allow lockdiscipline outbox drain is the replication tick, not a DAL op
		sh.mu.Lock()
		if len(r.outbox[i]) > 0 {
			perShard[i] = r.outbox[i]
			r.outbox[i] = nil
		}
		sh.mu.Unlock()
	}
	for region := 0; region < r.regions; region++ {
		for i := range perShard {
			if perShard[i] == nil || r.regionOf(i) == region {
				continue
			}
			out = append(out, ReplicationBatch{
				Region: region, shard: i, epoch: epoch, records: perShard[i],
			})
		}
	}
	return out
}

// DeliverReplication appends a batch to its destination region's backlog.
func (s *Store) DeliverReplication(b ReplicationBatch) {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	st := r.state[b.Region]
	for i := range b.records {
		st.backlog = append(st.backlog, replRecord{shard: b.shard, epoch: b.epoch, rec: b.records[i]})
	}
	st.pending[b.shard] += len(b.records)
	r.mu.Unlock()
}

// ApplyReplication applies region's ripe backlog prefix — records that have
// aged at least the configured delay — to its replica shards, then refreshes
// the backlog depth gauge.
func (s *Store) ApplyReplication(region int) {
	r := s.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state[region]
	i := 0
	for ; i < len(st.backlog); i++ {
		rec := st.backlog[i]
		if rec.epoch+uint64(r.delay) > r.epoch {
			break // publication epochs are non-decreasing: the rest is younger
		}
		r.applyLocked(st, rec)
		st.pending[rec.shard]--
	}
	if i > 0 {
		st.backlog = append(st.backlog[:0:0], st.backlog[i:]...)
	}
	r.refreshBacklogGaugeLocked()
}

func (r *replication) refreshBacklogGaugeLocked() {
	var depth int64
	for _, st := range r.state {
		depth += int64(len(st.backlog))
	}
	r.m.backlogDepth.Set(depth)
}

// applyLocked applies one record to its replica shard under r.mu, guarded by
// the (generation, region-id) LWW rule. Tombstoned revocations clear once the
// revoking record itself arrives.
func (r *replication) applyLocked(st *regionState, rr replRecord) {
	sh := st.replicas[rr.shard]
	origin := r.regionOf(rr.shard)
	//u1:allow lockdiscipline replica shards are not client-facing; the apply path has its own metrics
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := rr.rec
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
	if !shouldApply(st, sh, &rec, origin) {
		r.m.lwwSkipped.Inc()
		return
	}
	applyRecord(nil, sh, &rec)
	switch rec.Kind {
	case recMakeNode, recMakeContent, recMove:
		st.lastOrigin[rec.Node.Volume] = origin
	case recUnlink:
		st.lastOrigin[rec.VolID] = origin
	}
	r.m.applied.Inc()
	r.m.lagEpochs.Observe(float64(r.epoch - rr.epoch))
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

// TickReplication runs one full replication tick outside the simulation:
// advance the epoch, ship every published batch, and apply whatever is ripe
// in every region. The sharded engine's mailbox pump performs the same steps
// through per-region mailboxes.
func (s *Store) TickReplication() {
	if s.repl == nil {
		return
	}
	s.BeginReplicationEpoch()
	for _, b := range s.CollectReplication() {
		s.DeliverReplication(b)
	}
	for region := 0; region < s.repl.regions; region++ {
		s.ApplyReplication(region)
	}
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

// ReplicationBacklog returns the total records awaiting application across
// all regions.
func (s *Store) ReplicationBacklog() int {
	if s.repl == nil {
		return 0
	}
	s.repl.mu.RLock()
	defer s.repl.mu.RUnlock()
	var n int
	for _, st := range s.repl.state {
		n += len(st.backlog)
	}
	return n
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
	for _, b := range s.CollectReplication() {
		s.DeliverReplication(b)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state[at]
	for _, rec := range st.backlog {
		r.applyLocked(st, rec)
		st.pending[rec.shard]--
	}
	st.backlog = nil
	r.refreshBacklogGaugeLocked()
}

// RegionRecover restores a downed region from a surviving peer: the peer
// fast-forwards its replicas (FailoverRegion), every owner shard of the dead
// region is rebuilt from the peer's replica snapshot, derived store state is
// recomputed, and the region rejoins. Uploadjobs are transient and lost with
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
		//u1:allow lockdiscipline region drill reads the replica wholesale, not client load
		replica.mu.RLock()
		snap := snapshotState(replica)
		replica.mu.RUnlock()
		//u1:allow lockdiscipline region drill restores owner state wholesale, not client load
		sh.mu.Lock()
		sh.users = make(map[protocol.UserID]*userRow)
		sh.volumes = make(map[protocol.VolumeID]*volumeRow)
		sh.nodes = make(map[protocol.NodeID]*nodeRow)
		sh.shares = make(map[protocol.ShareID]*protocol.ShareInfo)
		sh.uploadjobs = make(map[protocol.UploadID]*UploadJob)
		restoreSnapshot(sh, snap)
		sh.mu.Unlock()
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
	//u1:allow lockdiscipline fingerprinting is a drill probe, not client load
	sh.mu.RLock()
	snap := snapshotState(sh)
	sh.mu.RUnlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return "unfingerprintable: " + err.Error()
	}
	sum := sha1.Sum(data)
	return hex.EncodeToString(sum[:])
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

// NumRegions implements apiserver.RegionRouter.
func (s *Store) NumRegions() int { return s.Regions() }

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
