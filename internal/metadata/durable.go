package metadata

import (
	"bufio"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
	"u1/internal/wire"
)

// The durable metadata tier: per-shard write-ahead journaling plus
// snapshot-and-replay recovery. The journal record is the mutation: every op
// decides its outcome under the shard write lock, fills a journalRecord with
// the *resulting* state — assigned identifiers, generations, removed
// subtrees — and hands it to commit, which runs the shard's one apply, then
// encodes the record once (codec.go) and journals and publishes those same
// bytes. Replay and replica application decode them and run that apply too,
// so a crashed shard rebuilt from its latest snapshot plus the journal suffix
// is the shard live traffic built, by construction. The recovery invariant
// this file exists to uphold (and the shard-crash chaos catalog entry
// enforces):
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
// state: the op maintains them next to its commit, and recovery recomputes
// them from the replayed shards rather than journaling them — which keeps
// cross-shard records out of the per-shard journals entirely (share
// operations commit one record to each involved shard instead).
//
// Every file call goes through Config.FS: the real disk, or a vfs.MemFS that
// can lose power at any call (TestCrashPointEnumeration).

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

// segmentBytes is the journal segment size (0: wal's default); the crash
// tests shrink it so a short run rolls and truncates segments.
var segmentBytes int64

// durability is the store's durable-tier state; nil when Config.Durability
// is empty.
type durability struct {
	root          string
	fsys          vfs.FS
	policy        wal.Policy
	snapshotEvery int
	syncCost      time.Duration // modeled per-mutation sync charge (see SyncCost)
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
	// scratch encodes the record of a store that journals without
	// replicating (a replicating store encodes onto the outbox instead).
	scratch wire.Writer
}

// journalRecord is one logical mutation. Records carry the resulting state —
// assigned IDs and generations included — so replay restores exactly what the
// store produced without re-running allocators. On disk and on the
// replication stream a record is its binary encoding (codec.go), written once
// per commit.
type journalRecord struct {
	Kind    recKind
	User    protocol.UserID
	Volume  protocol.VolumeInfo
	Root    protocol.NodeID
	Node    protocol.NodeInfo
	VolID   protocol.VolumeID
	Gen     protocol.Generation
	Removed []protocol.NodeInfo
	Share   protocol.ShareInfo
}

// jsonSnapshotFile is the snapshot name of the JSON-era format this build
// refuses to open (see loadShard).
const jsonSnapshotFile = "snapshot.json"

// openDurability attaches the durable tier to a freshly constructed store:
// per shard, load the snapshot, replay the journal suffix, and leave the
// journal open for appends; then rebuild the derived state. Called by Open
// before the store serves traffic.
func (s *Store) openDurability(cfg Config, reg *metrics.Registry) error {
	d := &durability{
		root:          cfg.Durability,
		fsys:          cfg.FS,
		policy:        cfg.FsyncPolicy,
		snapshotEvery: cfg.SnapshotEvery,
		shards:        make([]*durableShard, len(s.shards)),
		m: durMetrics{
			appends:    reg.Counter(metrics.WALAppends),
			snapshots:  reg.Counter(metrics.WALSnapshots),
			replayed:   reg.Counter(metrics.WALReplayed),
			tornBytes:  reg.Counter(metrics.WALTornBytesDropped),
			journalErr: reg.Counter(metrics.WALErrors),
		},
	}
	if d.snapshotEvery == 0 {
		d.snapshotEvery = DefaultSnapshotEvery
	}
	if d.fsys == nil {
		d.fsys = vfs.OSFS{}
	}
	d.syncCost = cfg.FsyncPolicy.SyncCost(d.fsys.FlushCost())
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
	sh, dsh, fsys := s.shards[i], s.dur.shards[i], s.dur.fsys
	walDir := filepath.Join(dsh.dir, "wal")

	if _, err := fsys.ReadFile(filepath.Join(dsh.dir, jsonSnapshotFile)); err == nil {
		return fmt.Errorf("metadata: %s holds a JSON-era %s; this build reads only %s (format version %d), so the store must be rebuilt",
			dsh.dir, jsonSnapshotFile, snapshotFile, snapshotVersion)
	}

	var snapLSN uint64
	snapPath := filepath.Join(dsh.dir, snapshotFile)
	if data, err := fsys.ReadFile(snapPath); err == nil {
		if snapLSN, err = readSnapshot(sh, data); err != nil {
			return fmt.Errorf("metadata: decoding snapshot %s: %w", snapPath, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("metadata: reading snapshot %s: %w", snapPath, err)
	}

	// Open first: it cuts any torn tail, so replay only sees intact frames.
	journal, err := wal.Open(walDir, wal.Options{Policy: s.dur.policy, SegmentBytes: segmentBytes, FS: fsys})
	if err != nil {
		return err
	}
	var rec journalRecord
	last, dropped, err := wal.Replay(fsys, walDir, func(lsn uint64, payload []byte) error {
		if len(payload) > 0 && payload[0] == '{' {
			return fmt.Errorf("metadata: journal record %d in %s is a JSON-era record; this build reads only the binary format, so the store must be rebuilt", lsn, walDir)
		}
		if lsn <= snapLSN {
			return nil // already folded into the snapshot
		}
		if err := decodePayload(payload, &rec); err != nil {
			return fmt.Errorf("metadata: decoding journal record %d: %w", lsn, err)
		}
		sh.apply(&rec)
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

// commit is the last step of every mutating op: it applies rec to sh, counts
// any delta-log trim, and journals and publishes the same record. It runs
// under sh's write lock and is journal's only caller, so every record is
// journaled under the lock that applied it and journal order, publish order
// and apply order are one order. An in-memory single-region store has no
// sink for the record and encodes nothing.
func (s *Store) commit(sh *shard, rec journalRecord) {
	if trims := sh.apply(&rec); trims > 0 {
		s.m.logTrimmed.Add(uint64(trims))
	}
	if s.dur != nil || s.repl != nil {
		s.journal(sh, &rec)
	}
}

// journal encodes one committed record once and hands those bytes to both
// sinks: the tail of sh's replication outbox and sh's journal. The record is
// on disk (per the fsync policy) before the operation acknowledges. Journal
// failures are counted, not fatal: the simulated store prefers availability,
// and the wal.errors counter makes the breach visible.
func (s *Store) journal(sh *shard, rec *journalRecord) {
	var payload []byte
	// The replication tier consumes the same record stream: publication under
	// the apply lock is what guarantees acknowledged writes are already
	// published when their region dies.
	if s.repl != nil {
		ob := &s.repl.outbox[sh.id]
		start := len(ob.w.Bytes())
		encodeRecord(&ob.w, rec)
		ob.n++
		payload = ob.w.Bytes()[start:]
		s.repl.m.published.Inc()
	}
	if s.dur == nil {
		return
	}
	dsh := s.dur.shards[sh.id]
	if payload == nil {
		dsh.scratch.Reset()
		encodeRecord(&dsh.scratch, rec)
		payload = dsh.scratch.Bytes()
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

// snapshotShardLocked writes sh's state as the new snapshot and releases the
// journal segments it covers. Runs under sh's write lock. The order is what
// keeps an acknowledged write on disk through a power cut at any step: the
// tmp file is written and synced, renamed over the old snapshot, the rename
// made durable by syncing the shard directory, and only then is the covered
// journal truncated.
func (s *Store) snapshotShardLocked(sh *shard) {
	dsh, fsys := s.dur.shards[sh.id], s.dur.fsys
	tmp := filepath.Join(dsh.dir, snapshotFile+".tmp")
	final := filepath.Join(dsh.dir, snapshotFile)
	err := writeSnapshotFile(fsys, tmp, sh, dsh.lastLSN)
	if err == nil {
		err = fsys.Rename(tmp, final)
	}
	if err == nil {
		err = fsys.SyncDir(dsh.dir)
	}
	if err == nil {
		err = dsh.journal.TruncateThrough(dsh.lastLSN)
	}
	if err != nil {
		s.dur.m.journalErr.Inc()
		return
	}
	dsh.records = 0
	s.dur.m.snapshots.Inc()
}

// writeSnapshotFile streams sh's snapshot at lsn into a new file at path
// through a bufio.Writer, then syncs and closes it.
func writeSnapshotFile(fsys vfs.FS, path string, sh *shard, lsn uint64) error {
	f, err := fsys.OpenFile(path, vfs.CreateTrunc)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = writeSnapshot(bw, sh, lsn)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
		// The final snapshot is maintenance, not client load.
		sh.LockUncounted()
		s.snapshotShardLocked(sh)
		if err := s.dur.shards[sh.id].journal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.UnlockUncounted()
	}
	return firstErr
}

// SyncCost reports whether the store journals its mutations and, if it does,
// the deterministic sync time each journaled mutation costs the request that
// made it: the fsync policy's wal.Policy.SyncCost of the disk's modeled
// flush (Config.FS's FlushCost). The API servers charge it; async journals
// report (0, true).
func (s *Store) SyncCost() (cost time.Duration, journals bool) {
	if s.dur == nil {
		return 0, false
	}
	return s.dur.syncCost, true
}

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
	sh.LockUncounted()
	sh.reset()
	if s.dur != nil {
		s.dur.shards[i].journal.Crash()
	}
	sh.UnlockUncounted()
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
	sh.LockUncounted()
	err := s.loadShard(i)
	sh.UnlockUncounted()
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
func (s *Store) ShardFingerprint(i int) string { return fingerprint(s.shards[i]) }

// fingerprint is the hex SHA-1 of sh's snapshot body (no LSN), owner or
// replica alike.
func fingerprint(sh *shard) string {
	h := sha1.New()
	// A drill probe, not client load.
	sh.RLockUncounted()
	err := writeShard(h, new(wire.Writer), sh)
	sh.RUnlockUncounted()
	if err != nil {
		return "unfingerprintable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// apply is the shard's one mutation path: live ops (through commit), journal
// replay and replica application change users, volumes, nodes, shares and
// delta logs only here. The record already carries the resulting state, so
// apply decides nothing — the op that built it validated it under the same
// write lock, and replay and replication meet records in the order they were
// applied. Store-level derived state (volume directory, content refcounts,
// allocators) stays with the op, or with rebuildDerived after recovery. It
// returns how many times the delta log trimmed; only commit counts them, so
// replay and replica application leave meta.deltalog.trimmed alone.
func (sh *shard) apply(rec *journalRecord) (trims int) {
	appendLog := func(vr *volumeRow, n protocol.NodeInfo, deleted bool) {
		if vr.appendLog(sh.deltaLogLimit, n, deleted) {
			trims++
		}
	}
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		sh.nodes[rec.Root] = &nodeRow{vol: rec.Volume.ID, kind: protocol.KindDir, name: "/"}
		sh.volumes[rec.Volume.ID] = &volumeRow{info: rec.Volume, root: rec.Root}
		if rec.Kind == recCreateUser {
			sh.users[rec.User] = &userRow{
				id:      rec.User,
				root:    rec.Volume.ID,
				volumes: []protocol.VolumeID{rec.Volume.ID},
			}
		} else if u, ok := sh.users[rec.User]; ok {
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
		appendLog(vr, rec.Node, false)

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
		appendLog(vr, rec.Node, false)

	case recUnlink:
		vr, ok := sh.volumes[rec.VolID]
		if !ok {
			return
		}
		// Removed[0] is the unlinked node itself; the rest is its subtree.
		if len(rec.Removed) > 0 {
			target := rec.Removed[0]
			if pr, ok := sh.nodes[target.Parent]; ok && pr.children != nil {
				delete(pr.children, target.Name)
			}
		}
		vr.info.Generation = rec.Gen
		for _, n := range rec.Removed {
			delete(sh.nodes, n.ID)
			appendLog(vr, n, true)
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
		u := sh.users[rec.User]
		if u != nil {
			u.removeVolume(rec.VolID)
		}
		for grantee, shareID := range vr.grants {
			delete(sh.shares, shareID)
			if u != nil {
				delete(u.sharesOut, shareID)
			}
			// A grantee on this shard loses the share here; a grantee on
			// another shard gets its own drop_share record.
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
	return trims
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
		sh.RLockUncounted()
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
		sh.RUnlockUncounted()
	}
	s.contents = contents
	bumpTo(&s.nextVolume, maxVol)
	bumpTo(&s.nextNode, maxNode)
	bumpTo(&s.nextShare, maxShare)
}
