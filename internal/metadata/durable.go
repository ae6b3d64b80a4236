package metadata

import (
	"bufio"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
	"u1/internal/wire"
)

// The durable metadata tier: per-shard write-ahead journaling plus
// snapshot-and-replay recovery. The journal record is the mutation, and every
// op reaches it one way: mutate (ops.go) resolves, guards, locks and checks
// access for a volume op, and its core, write, serves the user-keyed ones
// too. Under the shard write lock the op's build decides the outcome and
// returns one journalRecord with the *resulting* state — assigned
// identifiers, generations, removed subtrees — and write hands it to commit,
// which encodes the record once (codec.go), journals and publishes those same
// bytes, and only then runs the shard's one apply. Replay and replica
// application decode them and run that apply too, so a crashed shard rebuilt
// from its latest snapshot plus the journal suffix is the shard live traffic
// built, by construction. The
// recovery invariant this file exists to uphold (and the shard-crash chaos
// catalog entry enforces):
//
//   - every acknowledged write survives a crash-restart,
//   - no refused write is acknowledged: a disk call failing on a commit's
//     behalf refuses that op and fences its shard until recovery (fence), and
//   - no unacknowledged write is double-applied: a record torn by the crash
//     fails its CRC and is dropped on replay (see package wal), and a record
//     is only ever replayed once (the snapshot's LSN fences the suffix).
//
// Acknowledged means durable, one way: under per-op and group fsync (one
// path, priced differently by wal.Policy.SyncCost) an op returns only after
// a flush covers its record, so the RPC's answer, its pushes and
// wal.journaled come after it; write waits (awaitFlush) only after releasing
// the shard lock, so no flush holds a shard. Under async nothing waits.
// Two rules follow from taking the flush out of the lock:
//
//   - a reader may observe a committed record before its flush completes,
//     as under async;
//   - a refused op may survive recovery: a failed flush fences the shard and
//     refuses every op it covered, but their records may have reached the
//     disk, as a failed snapshot's op may.
//
// Uploadjobs are deliberately not journaled: they are transient multipart
// bookkeeping, garbage-collected weekly in production, and an upload whose
// final part has not committed was never acknowledged as a write. Content
// reference counts, the volume directory, the grantees' incoming-share index
// and the ID allocators are derived state (derived.go), never journaled: the
// owner path of apply keeps it record by record, and opening, crashing or
// recovering a shard swaps that shard's part alone. So every op commits one
// record to one shard — a share's is its owner's — and no crash can leave an
// op on some shards and not on others.
//
// Every file call goes through Config.FS: the real disk, or a vfs.MemFS that
// can lose power at any call (TestCrashPointEnumeration).

// DefaultSnapshotEvery is the per-shard journal record count between
// snapshots when the configuration does not specify one.
const DefaultSnapshotEvery = 4096

// durMetrics holds the wal.* instrumentation of the durable tier.
type durMetrics struct {
	appends   *metrics.Counter
	snapshots *metrics.Counter
	replayed  *metrics.Counter
	tornBytes *metrics.Counter
	fences    *metrics.Counter // wal.errors
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
	closed        atomic.Bool
}

// durableShard is one shard's journal handle plus snapshot cadence state.
// Mutated only under the owning shard's write lock.
type durableShard struct {
	journal *wal.Log
	dir     string
	lastLSN uint64
	records int // journal appends since the last snapshot
	// fenced is why the shard refuses mutations: a commit's failed disk
	// call (cleared by loadShard), or errClosed once the store is closed.
	fenced error
	// scratch encodes the record of a store that journals without
	// replicating (a replicating store encodes onto its replication log).
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
// per shard, load the snapshot, replay the journal suffix, leave the journal
// open for appends, and put the shard's rows in derived state. Called by Open
// before the store serves traffic.
func (s *Store) openDurability(cfg Config, reg *metrics.Registry) error {
	d := &durability{
		root:          cfg.Durability,
		fsys:          cfg.FS,
		policy:        cfg.FsyncPolicy,
		snapshotEvery: cfg.SnapshotEvery,
		shards:        make([]*durableShard, len(s.shards)),
		m: durMetrics{
			appends:   reg.Counter(metrics.WALAppends),
			snapshots: reg.Counter(metrics.WALSnapshots),
			replayed:  reg.Counter(metrics.WALReplayed),
			tornBytes: reg.Counter(metrics.WALTornBytesDropped),
			fences:    reg.Counter(metrics.WALErrors),
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
	for i, sh := range s.shards {
		d.shards[i] = &durableShard{dir: filepath.Join(d.root, fmt.Sprintf("shard-%d", i))}
		if err := s.derived.replace(sh, func() error { return s.loadShard(i) }); err != nil {
			return err
		}
	}
	return nil
}

// loadShard recovers one shard from its snapshot plus journal suffix and
// opens the journal for appending. The shard's in-memory maps must be empty
// (derived.replace empties them). Replay changes rows only.
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

	// Replay first: it counts the torn tail Open then cuts.
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
		sh.apply(&rec, nil)
		s.dur.m.replayed.Inc()
		return nil
	})
	if err != nil {
		return err
	}
	journal, err := wal.Open(walDir, wal.Options{SegmentBytes: segmentBytes, FS: fsys})
	if err != nil {
		return err
	}
	s.dur.m.tornBytes.Add(uint64(dropped))
	dsh.journal, dsh.lastLSN, dsh.records, dsh.fenced = journal, last, 0, nil
	return nil
}

// write is the shard-level core of every write, mutate's and the user-keyed
// ones' (CreateUser, CreateUDF, AcceptShare): under sh's write lock it runs
// build, which validates the op and returns its one record, and commits that
// record — none for the zero record, an op that answers without changing
// anything. It then waits for the record's flush (awaitFlush) holding no
// lock, and returns the hashes the commit freed. It is commit's one caller.
func (s *Store) write(sh *shard, build func(sh *shard) (journalRecord, error)) (freed []protocol.Hash, err error) {
	lockedAt := sh.Lock()
	rec, err := build(sh)
	var w flushWait
	if err == nil && rec.Kind != 0 {
		w, freed, err = s.commit(sh, &rec)
	}
	sh.Unlock(lockedAt)
	if err != nil {
		return nil, err
	}
	return freed, s.awaitFlush(sh, w)
}

// commit is the last step of every write, under sh's write lock: it encodes
// rec once for sh's journal and the tail of sh's replication log (where the
// peer regions read it), then applies rec to sh, counting any delta-log trim,
// and takes a snapshot when one is due. So journal, publish and apply order
// are one order, and a snapshot never claims an LSN whose record it lacks. It
// returns the flush write waits for once it holds no shard lock (none under
// async fsync) and the hashes apply freed. An error refuses the op and fences
// sh; a record the journal refused reaches neither sink nor sh. An in-memory
// single-region store encodes nothing.
func (s *Store) commit(sh *shard, rec *journalRecord) (flushWait, []protocol.Hash, error) {
	var dsh *durableShard
	var journal *wal.Log
	if s.dur != nil {
		if dsh = s.dur.shards[sh.id]; dsh.fenced != nil {
			return flushWait{}, nil, dsh.fenced
		}
		journal = dsh.journal
	}
	var lsn uint64
	var err error
	if s.repl != nil {
		lsn, err = s.repl.logs[sh.id].append(rec, journal)
	} else if dsh != nil {
		dsh.scratch.Reset()
		encodeRecord(&dsh.scratch, rec)
		lsn, err = journal.Append(dsh.scratch.Bytes())
	}
	if err != nil {
		return flushWait{}, nil, s.fence(sh.id, err)
	}
	if s.repl != nil {
		s.repl.m.published.Inc()
	}
	trims, freed := sh.apply(rec, &s.derived)
	if trims > 0 {
		s.m.logTrimmed.Add(uint64(trims))
	}
	if dsh == nil {
		return flushWait{}, freed, nil
	}
	s.dur.m.appends.Inc()
	if dsh.lastLSN, dsh.records = lsn, dsh.records+1; dsh.records >= s.dur.snapshotEvery {
		if err := s.snapshotShardLocked(sh); err != nil {
			return flushWait{}, freed, err
		}
	}
	if s.dur.policy == wal.FsyncAsync {
		return flushWait{}, freed, nil
	}
	return flushWait{journal, lsn}, freed, nil
}

// flushWait is what a write's acknowledgement waits for after its commit: a
// flush of journal through lsn. The zero value waits for nothing.
type flushWait struct {
	journal *wal.Log
	lsn     uint64
}

// awaitFlush returns once a flush covers w's record, at once for the zero
// w. The caller holds no shard lock, so the flush holds none either. A failed
// flush fences sh once, under its write lock, however many ops it covered,
// and each of them returns the fence. A flush that failed on a journal
// RecoverShard has since replaced refuses its op without fencing: the
// recovered shard never saw the error.
func (s *Store) awaitFlush(sh *shard, w flushWait) error {
	if w.journal == nil {
		return nil
	}
	err := w.journal.SyncThrough(w.lsn)
	if err == nil {
		return nil
	}
	sh.LockUncounted()
	defer sh.UnlockUncounted()
	dsh := s.dur.shards[sh.id]
	if dsh.journal != w.journal {
		return fmt.Errorf("%w: metadata shard %d recovered while the write was flushing: %w", protocol.ErrUnavailable, sh.id, err)
	}
	if dsh.fenced != nil {
		return dsh.fenced
	}
	return s.fence(sh.id, err)
}

// fence makes shard i refuse every mutation, reads still served, with an
// error wrapping protocol.ErrUnavailable and the failed disk call's err until
// RecoverShard or a restart reloads it from disk — PostgreSQL's rule since
// 2018: after a failed fsync, recover from the WAL rather than retry. It
// counts the fence in wal.errors.
func (s *Store) fence(i int, err error) error {
	dsh := s.dur.shards[i]
	dsh.fenced = fmt.Errorf("%w: metadata shard %d is fenced until recovery: %w", protocol.ErrUnavailable, i, err)
	s.dur.m.fences.Inc()
	return dsh.fenced
}

// snapshotShardLocked writes sh's state as the new snapshot and releases the
// journal segments it covers; a failed step fences sh, and a fenced shard
// takes no snapshot. Runs under sh's write lock. The order keeps an
// acknowledged write on disk through a power cut at any step: the journal is
// synced (one behind its snapshot would reissue the LSNs the snapshot
// claims), the tmp file written and synced, renamed over the old snapshot,
// the rename made durable by syncing the shard directory, and only then is
// the covered journal truncated.
func (s *Store) snapshotShardLocked(sh *shard) error {
	dsh, fsys := s.dur.shards[sh.id], s.dur.fsys
	if dsh.fenced != nil {
		return dsh.fenced
	}
	tmp := filepath.Join(dsh.dir, snapshotFile+".tmp")
	final := filepath.Join(dsh.dir, snapshotFile)
	err := dsh.journal.SyncThrough(dsh.lastLSN)
	if err == nil {
		err = writeSnapshotFile(fsys, tmp, sh, dsh.lastLSN)
	}
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
		return s.fence(sh.id, err)
	}
	dsh.records = 0
	s.dur.m.snapshots.Inc()
	return nil
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
	return errors.Join(err, f.Close())
}

// errClosed refuses every mutation of a closed store.
var errClosed = fmt.Errorf("%w: metadata store is closed", protocol.ErrUnavailable)

// Close flushes the durable tier: every shard is snapshotted and its journal
// synced and closed, which covers every commit still waiting for its flush.
// It returns every fence; a fenced shard's journal, not a snapshot, is what
// recovery reads. Every mutation after it fails with an error wrapping
// protocol.ErrUnavailable, and a second Close returns nil without touching
// the disk. In-memory stores return nil immediately.
func (s *Store) Close() error {
	if s.dur == nil || s.dur.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, sh := range s.shards {
		dsh := s.dur.shards[sh.id]
		// The final snapshot is maintenance, not client load.
		sh.LockUncounted()
		errs = append(errs, s.snapshotShardLocked(sh), dsh.journal.Close())
		dsh.fenced = errClosed
		sh.UnlockUncounted()
	}
	return errors.Join(errs...)
}

// Fences returns why shards refuse writes: each fence (naming its shard and
// the failed disk call) joined in shard order, errClosed once closed, nil
// while every shard takes writes. The probe is not client load.
func (s *Store) Fences() error {
	if s.dur == nil {
		return nil
	}
	if s.dur.closed.Load() {
		return errClosed
	}
	var errs []error
	for _, sh := range s.shards {
		sh.RLockUncounted()
		errs = append(errs, s.dur.shards[sh.id].fenced)
		sh.RUnlockUncounted()
	}
	return errors.Join(errs...)
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
// shard's entire in-memory state, and its part of derived state, is dropped
// and the journal handle abandoned without a sync. Traffic to shard i must be
// quiesced around CrashShard and the recovery that follows — a real
// deployment fails the shard over; the drill restarts it in place.
func (s *Store) CrashShard(i int) {
	s.derived.replace(s.shards[i], func() error {
		if s.dur != nil {
			s.dur.shards[i].journal.Crash()
		}
		return nil
	})
}

// RecoverShard is the whole restart of shard i, while the other shards serve:
// it drops the shard's state and journal handle as CrashShard does (a no-op
// after one) and reopens it from its snapshot plus journal suffix, which
// lifts a fence, swapping its part of derived state (derived.replace). On a
// replicated store it then rewinds every peer's replica of shard i to the
// recovered owner (rewindReplicas). Requires a durable store that is not
// closed; returns an error otherwise.
func (s *Store) RecoverShard(i int) error {
	if s.dur == nil {
		return fmt.Errorf("metadata: shard recovery requires a durable store")
	}
	if s.dur.closed.Load() {
		return errClosed
	}
	err := s.derived.replace(s.shards[i], func() error {
		s.dur.shards[i].journal.Crash()
		return s.loadShard(i)
	})
	if err != nil {
		return err
	}
	s.rewindReplicas(i)
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
// applied. Commit passes the store's derived state as d, which apply keeps
// from rec and the rows it replaces, and gets back the hashes freed; replay
// and replica application pass nil. It returns how many times the delta log
// trimmed; only commit counts them, so replay and replica application leave
// meta.deltalog.trimmed alone.
func (sh *shard) apply(rec *journalRecord, d *derived) (trims int, freed []protocol.Hash) {
	appendLog := func(vr *volumeRow, n protocol.NodeInfo, deleted bool) {
		if vr.appendLog(sh.deltaLogLimit, &sh.logScratch, n, deleted) {
			trims++
		}
	}
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		if d != nil {
			d.volumeDir.store(rec.Volume.ID, rec.User)
		}
		sh.nodes.insert(protocol.NodeInfo{ID: rec.Root, Volume: rec.Volume.ID, Kind: protocol.KindDir, Name: "/"})
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
		sh.nodes.insert(rec.Node)
		vr.info.Generation = rec.Node.Generation
		appendLog(vr, rec.Node, false)

	case recMakeContent, recMove:
		vr, ok := sh.volumes[rec.Node.Volume]
		if !ok {
			return
		}
		nr, ok := sh.nodes.get(rec.Node.ID)
		if !ok {
			return
		}
		if d != nil && nr.hash != rec.Node.Hash { // a content put, not a re-put
			d.contents.addRef(rec.Node.Hash, rec.Node.Size)
			freed = d.unref(freed, nr.hash)
		}
		sh.nodes.update(rec.Node)
		vr.info.Generation = rec.Node.Generation
		appendLog(vr, rec.Node, false)

	case recUnlink:
		vr, ok := sh.volumes[rec.VolID]
		if !ok {
			return
		}
		// Removed[0] is the unlinked node itself, which leaves its parent's
		// run; the rest is its subtree.
		vr.info.Generation = rec.Gen
		for _, n := range rec.Removed {
			freed = d.unref(freed, n.Hash)
			sh.nodes.remove(n.ID)
			appendLog(vr, n, true)
		}

	case recDeleteVolume:
		vr, ok := sh.volumes[rec.VolID]
		if !ok {
			return
		}
		for _, nodeID := range volumeNodeIDs(sh, vr) {
			nr, _ := sh.nodes.get(nodeID)
			freed = d.unref(freed, nr.hash)
			sh.nodes.remove(nodeID)
		}
		if d != nil {
			d.volumeDir.delete(rec.VolID)
		}
		delete(sh.volumes, rec.VolID)
		if u, ok := sh.users[rec.User]; ok {
			u.removeVolume(rec.VolID)
		}
		for _, shareID := range vr.grants {
			d.share(*sh.shares[shareID], false)
			delete(sh.shares, shareID)
		}

	case recCreateShare:
		vr, ok := sh.volumes[rec.Share.Volume]
		if !ok {
			return
		}
		share := rec.Share
		d.share(share, true)
		sh.shares[share.ID] = &share
		vr.addGrant(share.SharedTo, share.ID)

	case recAcceptShare:
		if share, ok := sh.shares[rec.Share.ID]; ok {
			share.Accepted = true
		}
	}
	return trims, freed
}
