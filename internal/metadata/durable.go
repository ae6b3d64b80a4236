package metadata

import (
	"crypto/sha1"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wal"
)

// The durable metadata tier: per-shard write-ahead journaling plus
// snapshot-and-replay recovery. Every mutation appends one logical record —
// carrying the *resulting* state, assigned identifiers included — to the
// owning shard's journal before the operation returns, so a crashed shard is
// rebuilt by loading its latest snapshot and replaying the journal suffix.
// The recovery invariant this file exists to uphold (and the crash drill and
// CI recovery job enforce):
//
//   - every acknowledged write survives a crash-restart, and
//   - no unacknowledged write is double-applied: a record torn by the crash
//     fails its CRC and is dropped on replay (see package wal), and a record
//     is only ever replayed once (the snapshot's LSN fences the suffix).
//
// Uploadjobs are deliberately not journaled: they are transient multipart
// bookkeeping, garbage-collected weekly in production, and an upload whose
// final part has not committed was never acknowledged as a write. Content
// reference counts, the volume directory, and the ID allocators are derived
// state, recomputed from the replayed shards rather than journaled — which
// keeps cross-shard records out of the per-shard journals entirely (share
// operations write one record to each involved shard instead).

// DefaultSnapshotEvery is the per-shard journal record count between
// snapshots when the configuration does not specify one.
const DefaultSnapshotEvery = 4096

// durMetrics holds the wal.* instrumentation of the durable tier.
type durMetrics struct {
	appends    *metrics.Counter
	snapshots  *metrics.Counter
	replayed   *metrics.Counter
	tornBytes  *metrics.Counter
	journalErr *metrics.Counter
}

// durability is the store's durable-tier state; nil when Config.Durability
// is empty.
type durability struct {
	root          string
	policy        wal.Policy
	snapshotEvery int
	shards        []*durableShard
	m             durMetrics
}

// durableShard is one shard's journal handle plus snapshot cadence state.
// Mutated only under the owning shard's write lock.
type durableShard struct {
	journal *wal.Log
	dir     string
	lastLSN uint64
	records int // journal appends since the last snapshot
}

// journalRecord is one logical mutation, encoded as JSON. Records carry the
// resulting state — assigned IDs and generations included — so replay
// restores exactly what the store produced without re-running allocators.
type journalRecord struct {
	Kind    string              `json:"kind"`
	User    protocol.UserID     `json:"user,omitempty"`
	Volume  protocol.VolumeInfo `json:"volume,omitempty"`
	Root    protocol.NodeID     `json:"root,omitempty"`
	Node    protocol.NodeInfo   `json:"node,omitempty"`
	VolID   protocol.VolumeID   `json:"vol_id,omitempty"`
	Gen     protocol.Generation `json:"gen,omitempty"`
	Removed []protocol.NodeInfo `json:"removed,omitempty"`
	Share   protocol.ShareInfo  `json:"share,omitempty"`
}

// Journal record kinds, one per mutating DAL class.
const (
	recCreateUser   = "create_user"
	recCreateUDF    = "create_udf"
	recMakeNode     = "make_node"
	recMakeContent  = "make_content"
	recMove         = "move"
	recUnlink       = "unlink"
	recDeleteVolume = "delete_volume"
	recCreateShare  = "create_share"
	recAcceptShare  = "accept_share"
	recDropShare    = "drop_share"
)

// shardSnapshot is the serialized full state of one shard: the save/load
// round-trip unit. Maps become sorted slices so encoding is deterministic;
// directory children indexes are rebuilt from each node's (Parent, Name).
type shardSnapshot struct {
	LSN     uint64               `json:"lsn"`
	Users   []userSnap           `json:"users"`
	Volumes []volumeSnap         `json:"volumes"`
	Nodes   []protocol.NodeInfo  `json:"nodes"`
	Shares  []protocol.ShareInfo `json:"shares"`
}

type userSnap struct {
	ID        protocol.UserID    `json:"id"`
	Root      protocol.VolumeID  `json:"root"`
	SharesIn  []protocol.ShareID `json:"shares_in,omitempty"`
	SharesOut []protocol.ShareID `json:"shares_out,omitempty"`
}

type volumeSnap struct {
	Info           protocol.VolumeInfo `json:"info"`
	Root           protocol.NodeID     `json:"root"`
	DroppedThrough protocol.Generation `json:"dropped_through,omitempty"`
	Log            []logSnap           `json:"log,omitempty"`
	Grants         []grantSnap         `json:"grants,omitempty"`
}

type logSnap struct {
	Gen     protocol.Generation `json:"gen"`
	Node    protocol.NodeInfo   `json:"node"`
	Deleted bool                `json:"deleted,omitempty"`
}

type grantSnap struct {
	To    protocol.UserID  `json:"to"`
	Share protocol.ShareID `json:"share"`
}

const snapshotFile = "snapshot.json"

// openDurability attaches the durable tier to a freshly constructed store:
// per shard, load the snapshot, replay the journal suffix, and leave the
// journal open for appends; then rebuild the derived state. Called by Open
// before the store serves traffic.
func (s *Store) openDurability(cfg Config, reg *metrics.Registry) error {
	d := &durability{
		root:          cfg.Durability,
		policy:        cfg.FsyncPolicy,
		snapshotEvery: cfg.SnapshotEvery,
		shards:        make([]*durableShard, len(s.shards)),
		m: durMetrics{
			appends:    reg.Counter(metrics.WALPrefix + "appends"),
			snapshots:  reg.Counter(metrics.WALPrefix + "snapshots"),
			replayed:   reg.Counter(metrics.WALPrefix + "replayed"),
			tornBytes:  reg.Counter(metrics.WALPrefix + "torn_bytes_dropped"),
			journalErr: reg.Counter(metrics.WALPrefix + "errors"),
		},
	}
	if d.snapshotEvery <= 0 {
		d.snapshotEvery = DefaultSnapshotEvery
	}
	s.dur = d
	for i := range s.shards {
		d.shards[i] = &durableShard{dir: filepath.Join(d.root, fmt.Sprintf("shard-%d", i))}
		if err := s.loadShard(i); err != nil {
			return err
		}
	}
	s.rebuildDerived()
	return nil
}

// loadShard recovers one shard from its snapshot plus journal suffix and
// opens the journal for appending. The shard's in-memory maps must be empty
// (fresh construction, or cleared by CrashShard).
func (s *Store) loadShard(i int) error {
	sh, dsh := s.shards[i], s.dur.shards[i]
	walDir := filepath.Join(dsh.dir, "wal")

	var snapLSN uint64
	snapPath := filepath.Join(dsh.dir, snapshotFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap shardSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("metadata: decoding snapshot %s: %w", snapPath, err)
		}
		restoreSnapshot(sh, &snap)
		snapLSN = snap.LSN
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("metadata: reading snapshot %s: %w", snapPath, err)
	}

	// Open first: it cuts any torn tail, so replay only sees intact frames.
	journal, err := wal.Open(walDir, wal.Options{Policy: s.dur.policy})
	if err != nil {
		return err
	}
	last, dropped, err := wal.Replay(walDir, func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			return nil // already folded into the snapshot
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("metadata: decoding journal record %d: %w", lsn, err)
		}
		applyRecord(s, sh, &rec)
		s.dur.m.replayed.Inc()
		return nil
	})
	if err != nil {
		journal.Close() //nolint:errcheck
		return err
	}
	s.dur.m.tornBytes.Add(uint64(dropped))
	dsh.journal = journal
	dsh.lastLSN = last
	dsh.records = 0
	return nil
}

// journal appends one record to sh's journal; a no-op for in-memory stores.
// It runs under sh's write lock — the same critical section that applied the
// mutation — so journal order always matches apply order, and the record is
// on disk (per the fsync policy) before the operation acknowledges. Journal
// failures are counted, not fatal: the simulated store prefers availability,
// and the wal.errors counter makes the breach visible.
//
// The record arrives by value and neither sink takes its address: with
// replication and durability both off, a mutation leaves no record on the
// heap.
func (s *Store) journal(sh *shard, rec journalRecord) {
	// The replication tier consumes the same record stream: publication under
	// the apply lock is what makes replica replay order match owner apply
	// order (and what guarantees acknowledged writes are already published
	// when their region dies).
	if s.repl != nil {
		s.repl.outbox[sh.id] = append(s.repl.outbox[sh.id], rec)
		s.repl.m.published.Inc()
	}
	if s.dur == nil {
		return
	}
	dsh := s.dur.shards[sh.id]
	payload, err := json.Marshal(rec)
	if err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	lsn, err := dsh.journal.Append(payload)
	if err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	s.dur.m.appends.Inc()
	dsh.lastLSN = lsn
	dsh.records++
	if dsh.records >= s.dur.snapshotEvery {
		s.snapshotShardLocked(sh)
	}
}

// snapshotShardLocked writes sh's state as the new snapshot (atomic
// tmp+rename) and releases the journal segments it covers. Runs under sh's
// write lock.
func (s *Store) snapshotShardLocked(sh *shard) {
	dsh := s.dur.shards[sh.id]
	snap := snapshotState(sh)
	snap.LSN = dsh.lastLSN
	data, err := json.Marshal(snap)
	if err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	tmp := filepath.Join(dsh.dir, snapshotFile+".tmp")
	final := filepath.Join(dsh.dir, snapshotFile)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	if err := os.Rename(tmp, final); err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	if err := dsh.journal.TruncateThrough(snap.LSN); err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	dsh.records = 0
	s.dur.m.snapshots.Inc()
}

// Close flushes the durable tier: every shard is snapshotted and its journal
// synced and closed. In-memory stores return nil immediately. The store must
// not be used after Close.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	var firstErr error
	for _, sh := range s.shards {
		//u1:allow lockdiscipline final snapshot at Close is maintenance, not a DAL op; op counters track client load only
		sh.mu.Lock()
		s.snapshotShardLocked(sh)
		if err := s.dur.shards[sh.id].journal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// DurabilityEnabled reports whether the store journals mutations.
func (s *Store) DurabilityEnabled() bool { return s.dur != nil }

// ShardWALDir returns the journal directory of shard i, for harnesses that
// damage the tail to exercise torn-record recovery. Empty without durability.
func (s *Store) ShardWALDir(i int) string {
	if s.dur == nil {
		return ""
	}
	return filepath.Join(s.dur.shards[i].dir, "wal")
}

// CrashShard simulates the SIGKILL of the process serving shard i: the
// shard's entire in-memory state is dropped and the journal handle abandoned
// without a sync. Traffic to the store must be quiesced around
// CrashShard/RecoverShard — a real deployment fails the shard over; the
// drill restarts it in place.
func (s *Store) CrashShard(i int) {
	sh := s.shards[i]
	//u1:allow lockdiscipline crash drill wipes shard state outside the DAL path
	sh.mu.Lock()
	sh.users = make(map[protocol.UserID]*userRow)
	sh.volumes = make(map[protocol.VolumeID]*volumeRow)
	sh.nodes = make(map[protocol.NodeID]*nodeRow)
	sh.shares = make(map[protocol.ShareID]*protocol.ShareInfo)
	sh.uploadjobs = make(map[protocol.UploadID]*UploadJob)
	if s.dur != nil {
		s.dur.shards[i].journal.Crash()
	}
	sh.mu.Unlock()
}

// RecoverShard reopens shard i from its snapshot plus journal suffix — the
// restart half of the crash drill — and recomputes the store's derived state
// (volume directory, content reference counts, ID allocators) from all
// shards. Requires durability; returns an error otherwise.
func (s *Store) RecoverShard(i int) error {
	if s.dur == nil {
		return fmt.Errorf("metadata: shard recovery requires a durable store")
	}
	sh := s.shards[i]
	//u1:allow lockdiscipline recovery is maintenance; hold histograms track client load only
	sh.mu.Lock()
	err := s.loadShard(i)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.rebuildDerived()
	return nil
}

// ShardFingerprint digests shard i's client-visible state — users, volumes
// (generations, delta logs, grants), nodes, shares — as a hex SHA-1. The
// crash drill compares fingerprints before the crash and after recovery:
// equality is the no-divergence half of the recovery gate. Uploadjobs are
// excluded (transient, never journaled).
func (s *Store) ShardFingerprint(i int) string {
	sh := s.shards[i]
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

// snapshotState serializes sh's maps into the deterministic snapshot form.
// Caller holds at least the read lock.
func snapshotState(sh *shard) *shardSnapshot {
	snap := &shardSnapshot{}
	for _, u := range sh.users {
		us := userSnap{ID: u.id, Root: u.root}
		for id := range u.sharesIn {
			us.SharesIn = append(us.SharesIn, id)
		}
		for id := range u.sharesOut {
			us.SharesOut = append(us.SharesOut, id)
		}
		sort.Slice(us.SharesIn, func(i, j int) bool { return us.SharesIn[i] < us.SharesIn[j] })
		sort.Slice(us.SharesOut, func(i, j int) bool { return us.SharesOut[i] < us.SharesOut[j] })
		snap.Users = append(snap.Users, us)
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].ID < snap.Users[j].ID })

	for _, vr := range sh.volumes {
		vs := volumeSnap{Info: vr.info, Root: vr.root, DroppedThrough: vr.droppedThrough}
		for _, e := range vr.log {
			vs.Log = append(vs.Log, logSnap{Gen: e.gen, Node: e.node, Deleted: e.deleted})
		}
		for to, id := range vr.grants {
			vs.Grants = append(vs.Grants, grantSnap{To: to, Share: id})
		}
		sort.Slice(vs.Grants, func(i, j int) bool { return vs.Grants[i].Share < vs.Grants[j].Share })
		snap.Volumes = append(snap.Volumes, vs)
	}
	sort.Slice(snap.Volumes, func(i, j int) bool { return snap.Volumes[i].Info.ID < snap.Volumes[j].Info.ID })

	for id, nr := range sh.nodes {
		snap.Nodes = append(snap.Nodes, nr.info(id))
	}
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].ID < snap.Nodes[j].ID })

	for _, share := range sh.shares {
		snap.Shares = append(snap.Shares, *share)
	}
	sort.Slice(snap.Shares, func(i, j int) bool { return snap.Shares[i].ID < snap.Shares[j].ID })
	return snap
}

// restoreSnapshot rebuilds sh's maps from a snapshot: rows first, then the
// children indexes from each node's (Parent, Name).
func restoreSnapshot(sh *shard, snap *shardSnapshot) {
	for _, vs := range snap.Volumes {
		vr := &volumeRow{
			info:           vs.Info,
			root:           vs.Root,
			droppedThrough: vs.DroppedThrough,
		}
		for _, e := range vs.Log {
			vr.log = append(vr.log, logEntry{gen: e.Gen, node: e.Node, deleted: e.Deleted})
		}
		for _, g := range vs.Grants {
			vr.addGrant(g.To, g.Share)
		}
		sh.volumes[vs.Info.ID] = vr
	}
	for _, info := range snap.Nodes {
		sh.nodes[info.ID] = newNodeRow(info)
	}
	for _, info := range snap.Nodes {
		if info.Parent == 0 {
			continue // volume roots hang off volumeRow.root
		}
		if pr, ok := sh.nodes[info.Parent]; ok && pr.kind == protocol.KindDir {
			pr.addChild(info.Name, info.ID)
		}
	}
	for i := range snap.Shares {
		share := snap.Shares[i]
		sh.shares[share.ID] = &share
	}
	for _, us := range snap.Users {
		u := &userRow{
			id:   us.ID,
			root: us.Root,
		}
		for _, id := range us.SharesIn {
			u.addShareIn(id)
		}
		for _, id := range us.SharesOut {
			u.addShareOut(id)
		}
		sh.users[us.ID] = u
	}
	// Owned-volume lists derive from volume ownership. Walk the snapshot's
	// volume list (already in ascending-ID order) rather than the map just
	// rebuilt from it, so the per-user volume lists come back in the same
	// order on every recovery.
	for i := range snap.Volumes {
		vs := &snap.Volumes[i]
		if u, ok := sh.users[vs.Info.Owner]; ok {
			u.addVolume(vs.Info.ID)
		}
	}
}

// applyRecord replays one journal record onto sh. The journal was written in
// apply order under the shard write lock, so sequential application
// reconstructs the exact pre-crash state. Derived store-level state (volume
// directory, content refcounts, allocators) is rebuilt afterwards by
// rebuildDerived, never here.
func applyRecord(s *Store, sh *shard, rec *journalRecord) {
	switch rec.Kind {
	case recCreateUser:
		applyNewVolume(sh, rec.Volume, rec.Root)
		sh.users[rec.User] = &userRow{
			id:      rec.User,
			root:    rec.Volume.ID,
			volumes: []protocol.VolumeID{rec.Volume.ID},
		}

	case recCreateUDF:
		applyNewVolume(sh, rec.Volume, rec.Root)
		if u, ok := sh.users[rec.User]; ok {
			u.addVolume(rec.Volume.ID)
		}

	case recMakeNode:
		vr, ok := sh.volumes[rec.Node.Volume]
		if !ok {
			return
		}
		sh.nodes[rec.Node.ID] = newNodeRow(rec.Node)
		if pr, ok := sh.nodes[rec.Node.Parent]; ok && pr.kind == protocol.KindDir {
			pr.addChild(rec.Node.Name, rec.Node.ID)
		}
		vr.info.Generation = rec.Node.Generation
		vr.appendLog(sh.deltaLogLimit, rec.Node, false)

	case recMakeContent, recMove:
		vr, ok := sh.volumes[rec.Node.Volume]
		if !ok {
			return
		}
		nr, ok := sh.nodes[rec.Node.ID]
		if !ok {
			return
		}
		if rec.Kind == recMove {
			if old, ok := sh.nodes[nr.parent]; ok && old.children != nil {
				delete(old.children, nr.name)
			}
			if pr, ok := sh.nodes[rec.Node.Parent]; ok && pr.kind == protocol.KindDir {
				pr.addChild(rec.Node.Name, rec.Node.ID)
			}
		}
		nr.setInfo(rec.Node)
		vr.info.Generation = rec.Node.Generation
		vr.appendLog(sh.deltaLogLimit, rec.Node, false)

	case recUnlink:
		vr, ok := sh.volumes[rec.VolID]
		if !ok {
			return
		}
		if len(rec.Removed) > 0 {
			target := rec.Removed[0]
			if pr, ok := sh.nodes[target.Parent]; ok && pr.children != nil {
				delete(pr.children, target.Name)
			}
		}
		vr.info.Generation = rec.Gen
		for _, n := range rec.Removed {
			delete(sh.nodes, n.ID)
			vr.appendLog(sh.deltaLogLimit, n, true)
		}

	case recDeleteVolume:
		vr, ok := sh.volumes[rec.VolID]
		if !ok {
			return
		}
		for _, nodeID := range volumeNodeIDs(sh, vr) {
			delete(sh.nodes, nodeID)
		}
		delete(sh.volumes, rec.VolID)
		if u := sh.users[rec.User]; u != nil {
			u.removeVolume(rec.VolID)
		}
		for grantee, shareID := range vr.grants {
			delete(sh.shares, shareID)
			if u := sh.users[rec.User]; u != nil {
				delete(u.sharesOut, shareID)
			}
			// Same-shard grantees were cleaned under this lock in the live
			// path; different-shard grantees have their own drop_share record.
			if gu, ok := sh.users[grantee]; ok {
				delete(gu.sharesIn, shareID)
			}
		}

	case recCreateShare:
		share := rec.Share
		sh.shares[share.ID] = &share
		// Owner side: the volume row lives here.
		if vr, ok := sh.volumes[share.Volume]; ok {
			vr.addGrant(share.SharedTo, share.ID)
			if ou, ok := sh.users[share.SharedBy]; ok {
				ou.addShareOut(share.ID)
			}
		}
		// Grantee side: the grantee's user row lives here.
		if gu, ok := sh.users[share.SharedTo]; ok {
			gu.addShareIn(share.ID)
		}

	case recAcceptShare:
		if share, ok := sh.shares[rec.Share.ID]; ok {
			share.Accepted = true
		}

	case recDropShare:
		delete(sh.shares, rec.Share.ID)
		if gu, ok := sh.users[rec.Share.SharedTo]; ok {
			delete(gu.sharesIn, rec.Share.ID)
		}
	}
}

// applyNewVolume reconstructs a volume row plus its root directory with the
// recorded identifiers (the replay twin of newVolumeLocked).
func applyNewVolume(sh *shard, info protocol.VolumeInfo, rootID protocol.NodeID) {
	sh.nodes[rootID] = &nodeRow{vol: info.ID, kind: protocol.KindDir, name: "/"}
	sh.volumes[info.ID] = &volumeRow{
		info: info,
		root: rootID,
	}
}

// rebuildDerived recomputes every piece of store-level state that is a pure
// function of the shard contents: the volume directory, the content
// registry's reference counts, and the ID allocators. Allocators only move
// forward — max(current, observed+...) — so identifiers are never reissued
// after a partial recovery.
func (s *Store) rebuildDerived() {
	var maxVol, maxNode, maxShare uint64
	contents := newContentRegistry()
	s.volumeDir.clear()
	for _, sh := range s.shards {
		//u1:allow lockdiscipline derived-state rebuild after recovery, not client load
		sh.mu.RLock()
		for id, vr := range sh.volumes {
			s.volumeDir.store(id, vr.info.Owner)
			if uint64(id) > maxVol {
				maxVol = uint64(id)
			}
		}
		for id, nr := range sh.nodes {
			if uint64(id) > maxNode {
				maxNode = uint64(id)
			}
			if nr.kind == protocol.KindFile && !nr.hash.IsZero() {
				contents.addRef(nr.hash, nr.size)
			}
		}
		for id := range sh.shares {
			if uint64(id) > maxShare {
				maxShare = uint64(id)
			}
		}
		sh.mu.RUnlock()
	}
	s.contents = contents
	bumpTo(&s.nextVolume, maxVol)
	bumpTo(&s.nextNode, maxNode)
	bumpTo(&s.nextShare, maxShare)
}
