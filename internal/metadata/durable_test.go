package metadata

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// storeRoot is where the tests root a durable store on a MemFS.
const storeRoot = "/u1"

// openDurable opens a durable store on fsys, rooted at storeRoot unless cfg
// names a directory.
func openDurable(t *testing.T, fsys vfs.FS, cfg Config) *Store {
	t.Helper()
	cfg.FS = fsys
	if cfg.Durability == "" {
		cfg.Durability = storeRoot
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open durable store: %v", err)
	}
	return s
}

// populate drives a representative mutation mix through every journaled op
// class and returns the volume of the first user for follow-up assertions.
func populate(t *testing.T, s *Store) protocol.VolumeID {
	t.Helper()
	users := []protocol.UserID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, u := range users {
		if _, err := s.CreateUser(u); err != nil {
			t.Fatalf("CreateUser(%v): %v", u, err)
		}
	}
	rootVol := func(u protocol.UserID) protocol.VolumeID {
		v, err := s.CreateUser(u) // an existing user: a read of its root volume
		if err != nil {
			t.Fatalf("CreateUser(%v): %v", u, err)
		}
		return v.ID
	}
	vol := rootVol(1)
	dir, err := s.MakeDir(1, vol, 0, "docs")
	if err != nil {
		t.Fatalf("MakeDir: %v", err)
	}
	f1, err := s.MakeFile(1, vol, dir.ID, "a.txt")
	if err != nil {
		t.Fatalf("MakeFile: %v", err)
	}
	f2, err := s.MakeFile(1, vol, dir.ID, "b.txt")
	if err != nil {
		t.Fatalf("MakeFile: %v", err)
	}
	h := protocol.HashBytes([]byte("shared-content"))
	if _, _, _, err := s.MakeContent(1, vol, f1.ID, h, 1024); err != nil {
		t.Fatalf("MakeContent: %v", err)
	}
	// Second reference to the same hash: a dedup hit the recovery must keep.
	if _, _, _, err := s.MakeContent(1, vol, f2.ID, h, 1024); err != nil {
		t.Fatalf("MakeContent dedup: %v", err)
	}
	if _, err := s.Move(1, vol, f2.ID, 0, "b-moved.txt"); err != nil {
		t.Fatalf("Move: %v", err)
	}
	victim, err := s.MakeFile(1, vol, dir.ID, "doomed.txt")
	if err != nil {
		t.Fatalf("MakeFile victim: %v", err)
	}
	if _, _, _, err := s.Unlink(1, vol, victim.ID); err != nil {
		t.Fatalf("Unlink: %v", err)
	}
	udf, err := s.CreateUDF(2, "~/Music")
	if err != nil {
		t.Fatalf("CreateUDF: %v", err)
	}
	if _, err := s.MakeFile(2, udf.ID, 0, "song.mp3"); err != nil {
		t.Fatalf("MakeFile in UDF: %v", err)
	}
	share, err := s.CreateShare(1, vol, 2, "docs-for-2", false)
	if err != nil {
		t.Fatalf("CreateShare: %v", err)
	}
	if _, err := s.AcceptShare(2, share.ID); err != nil {
		t.Fatalf("AcceptShare: %v", err)
	}
	// A shared-then-deleted UDF exercises the replay of a delete_volume that
	// drops a grant.
	udf3, err := s.CreateUDF(3, "~/Temp")
	if err != nil {
		t.Fatalf("CreateUDF: %v", err)
	}
	if _, err := s.CreateShare(3, udf3.ID, 4, "temp-for-4", true); err != nil {
		t.Fatalf("CreateShare: %v", err)
	}
	if _, _, err := s.DeleteVolume(3, udf3.ID); err != nil {
		t.Fatalf("DeleteVolume: %v", err)
	}
	return vol
}

// fingerprints digests every shard.
func fingerprints(s *Store) []string {
	out := make([]string, s.NumShards())
	for i := range out {
		out[i] = s.ShardFingerprint(i)
	}
	return out
}

// TestDurableReopenRoundTrip is the save/load contract: close a durable
// store, reopen the same directory, and every shard — plus all derived state
// — must come back bit-identical.
func TestDurableReopenRoundTrip(t *testing.T) {
	fsys := vfs.NewMemFS()
	s := openDurable(t, fsys, Config{FsyncPolicy: wal.FsyncPerOp})
	vol := populate(t, s)
	before := fingerprints(s)
	contentsBefore := *s.Contents()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fsys.Crash() // Close synced everything it wrote
	r := openDurable(t, fsys, Config{FsyncPolicy: wal.FsyncPerOp})
	defer r.Close() //nolint:errcheck
	after := fingerprints(r)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("shard %d diverged across reopen:\n  before %s\n  after  %s", i, before[i], after[i])
		}
	}
	if got := *r.Contents(); got != contentsBefore {
		t.Errorf("content registry diverged: %+v != %+v", got, contentsBefore)
	}
	// Allocators must move past recovered IDs: a fresh node ID must be new.
	n, err := r.MakeFile(1, vol, 0, "post-recovery.txt")
	if err != nil {
		t.Fatalf("MakeFile after reopen: %v", err)
	}
	if _, err := r.GetNode(1, vol, n.ID); err != nil {
		t.Fatalf("GetNode on fresh post-recovery node: %v", err)
	}
	if prev, err := r.GetNode(1, vol, n.ID-1); err == nil && prev.Name == n.Name {
		t.Fatalf("allocator reissued a recovered node ID: %+v", prev)
	}
}

// TestCrashShardRecovers is the in-process half of the crash drill: drop a
// shard's state mid-life and recover it from snapshot+journal.
func TestCrashShardRecovers(t *testing.T) {
	s := openDurable(t, vfs.NewMemFS(), Config{FsyncPolicy: wal.FsyncPerOp})
	defer s.Close() //nolint:errcheck
	populate(t, s)
	for i := 0; i < s.NumShards(); i++ {
		before := s.ShardFingerprint(i)
		s.CrashShard(i)
		if after := s.ShardFingerprint(i); after == before && before != s.ShardFingerprint((i+1)%s.NumShards()) {
			t.Fatalf("CrashShard(%d) left shard state in place", i)
		}
		if err := s.RecoverShard(i); err != nil {
			t.Fatalf("RecoverShard(%d): %v", i, err)
		}
		if after := s.ShardFingerprint(i); after != before {
			t.Errorf("shard %d diverged across crash-recover:\n  before %s\n  after  %s", i, before, after)
		}
	}
}

// TestRecoverShardAloneRestartsFencedShard: RecoverShard is the whole
// restart. A shard fenced by a failed disk call, never crashed, refuses
// writes and keeps serving reads; RecoverShard alone drops it and reloads it
// from disk rather than replaying the journal onto live state. The async
// journal's unsynced records go with the dirty pages a failed disk may drop
// (a power cut on the MemFS), so live state is ahead of the disk here: after
// recovery the shard must equal a fresh Open of that disk, and take writes.
// A fenced store's Close returns the fence.
func TestRecoverShardAloneRestartsFencedShard(t *testing.T) {
	f := &faultFS{MemFS: vfs.NewMemFS()}
	cfg := Config{SnapshotEvery: 4, FsyncPolicy: wal.FsyncAsync}
	s := openDurable(t, f, cfg)
	vol := populate(t, s)
	i := s.ShardFor(1)
	// Journal past the last snapshot: the records the power cut below loses.
	for n := 0; s.dur.shards[i].records == 0; n++ {
		if _, err := s.MakeFile(1, vol, 0, fmt.Sprintf("unsynced-%d", n)); err != nil {
			t.Fatal(err)
		}
	}
	f.at = f.calls + 1 // the next mutating disk call fails
	for _, name := range []string{"refused.txt", "while-fenced.txt"} {
		if _, err := s.MakeFile(1, vol, 0, name); !errors.Is(err, protocol.ErrUnavailable) {
			t.Fatalf("MakeFile(%q) on a fenced shard: %v, want ErrUnavailable", name, err)
		}
	}
	if _, err := s.GetVolume(1, vol); err != nil {
		t.Fatalf("GetVolume on a fenced shard: %v", err)
	}
	f.Crash()
	if err := s.RecoverShard(i); err != nil {
		t.Fatalf("RecoverShard(%d) of a fenced shard: %v", i, err)
	}
	if got, want := s.ShardFingerprint(i), openDurable(t, f.MemFS, cfg).ShardFingerprint(i); got != want {
		t.Fatalf("RecoverShard(%d) alone diverged from a fresh Open of its disk:\n  recovered %s\n  fresh     %s", i, got, want)
	}
	if _, err := s.CreateUDF(1, "~/after-recovery"); err != nil {
		t.Fatalf("CreateUDF after recovery: %v", err)
	}

	f = &faultFS{MemFS: vfs.NewMemFS()}
	s = openDurable(t, f, cfg)
	f.at = f.calls + 1
	if _, err := s.CreateUser(1); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("CreateUser over a failed write: %v, want ErrUnavailable", err)
	}
	if err := s.Close(); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("Close of a fenced store: %v, want its fence", err)
	}
}

// TestFencesNameTheFencedShard: Fences, the operator's health probe, is nil
// while every shard takes writes, names the fenced shard and its failed disk
// call while one refuses them, clears with RecoverShard, and reports the
// close once the store is closed.
func TestFencesNameTheFencedShard(t *testing.T) {
	f := &faultFS{MemFS: vfs.NewMemFS()}
	s := openDurable(t, f, Config{FsyncPolicy: wal.FsyncPerOp})
	vol := populate(t, s)
	if err := s.Fences(); err != nil {
		t.Fatalf("Fences of a healthy store: %v", err)
	}
	i := s.ShardFor(1)
	f.at = f.calls + 1 // the next mutating disk call fails
	if _, err := s.MakeFile(1, vol, 0, "refused.txt"); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("MakeFile over a failed write: %v, want ErrUnavailable", err)
	}
	err := s.Fences()
	if !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("Fences with shard %d fenced: %v, want ErrUnavailable", i, err)
	}
	want := fmt.Sprintf("metadata shard %d is fenced", i)
	if lines := strings.Split(err.Error(), "\n"); len(lines) != 1 || !strings.Contains(lines[0], want) ||
		!strings.Contains(lines[0], "no space left on device") {
		t.Fatalf("Fences = %q, want one line naming %q and the ENOSPC", err, want)
	}
	if err := s.RecoverShard(i); err != nil {
		t.Fatal(err)
	}
	if err := s.Fences(); err != nil {
		t.Fatalf("Fences after RecoverShard(%d): %v", i, err)
	}
	s.Close()
	if err := s.Fences(); !errors.Is(err, errClosed) {
		t.Fatalf("Fences of a closed store: %v, want %v", err, errClosed)
	}
	if err := New(Config{}).Fences(); err != nil {
		t.Fatalf("Fences of an in-memory store: %v", err)
	}
}

// TestRefusedRecordNeverReplicates: a record its journal refuses is cut back
// off the owner's replication log, so no peer applies a record its owner did
// not keep, and after a drain every replica of the fenced shard still equals
// its owner.
func TestRefusedRecordNeverReplicates(t *testing.T) {
	f := &faultFS{MemFS: vfs.NewMemFS()}
	s := openDurable(t, f, Config{Regions: 2, FsyncPolicy: wal.FsyncPerOp})
	vol := populate(t, s)
	f.at = f.calls + 1 // the next mutating disk call fails
	if _, err := s.MakeFile(1, vol, 0, "refused.txt"); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("MakeFile over a failed write: %v, want ErrUnavailable", err)
	}
	s.DrainReplication()
	i := s.ShardFor(1)
	for region := 0; region < s.Regions(); region++ {
		if got, want := s.ReplicaFingerprint(region, i), s.ShardFingerprint(i); got != want {
			t.Fatalf("region %d's replica of fenced shard %d diverged from its owner:\n  replica %s\n  owner   %s", region, i, got, want)
		}
	}
}

// TestSnapshotCadenceAndTruncation verifies a small SnapshotEvery produces
// snapshots, releases journal segments, and still recovers exactly.
func TestSnapshotCadenceAndTruncation(t *testing.T) {
	fsys := vfs.NewMemFS()
	s := openDurable(t, fsys, Config{Shards: 1, SnapshotEvery: 4, FsyncPolicy: wal.FsyncGroupCommit})
	root, err := s.CreateUser(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.MakeFile(9, root.ID, 0, "f"+string(rune('a'+i%26))+string(rune('0'+i/26))); err != nil {
			t.Fatalf("MakeFile %d: %v", i, err)
		}
	}
	snapPath := filepath.Join(storeRoot, "shard-0", snapshotFile)
	if _, err := fsys.ReadFile(snapPath); err != nil {
		t.Fatalf("no snapshot written at cadence 4: %v", err)
	}
	before := s.ShardFingerprint(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, fsys, Config{Shards: 1, SnapshotEvery: 4})
	defer r.Close() //nolint:errcheck
	if after := r.ShardFingerprint(0); after != before {
		t.Errorf("snapshotting store diverged across reopen:\n  before %s\n  after  %s", before, after)
	}
}

// TestRecoverTornJournalTail pins the machine-crash case under async fsync: a
// torn final record is dropped, every earlier record survives, recovery
// succeeds rather than erroring, and the recovered store keeps serving. It
// runs on the real disk, the one wal.CorruptTail damages.
func TestRecoverTornJournalTail(t *testing.T) {
	s := openDurable(t, vfs.OSFS{}, Config{Durability: t.TempDir(), Shards: 1, FsyncPolicy: wal.FsyncAsync})
	root, err := s.CreateUser(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.MakeFile(1, root.ID, 0, "keep"+string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	s.CrashShard(0)
	if err := wal.CorruptTail(s.ShardWALDir(0)); err != nil {
		t.Fatalf("CorruptTail: %v", err)
	}
	if err := s.RecoverShard(0); err != nil {
		t.Fatalf("RecoverShard with torn tail: %v", err)
	}
	if s.dur.m.tornBytes.Value() == 0 {
		t.Error("the torn tail was not counted in wal.torn_bytes_dropped")
	}
	// All but the torn final mutation must be present.
	nodes, _, err := fromScratch(s, 1, root.ID)
	if err != nil {
		t.Fatalf("GetFromScratch: %v", err)
	}
	// 1 root + 10 files written, minus exactly the torn final record.
	if len(nodes) != 10 {
		t.Errorf("recovered %d nodes after torn tail, want 10 (root + 9 intact files)", len(nodes))
	}
	if _, err := s.MakeFile(1, root.ID, 0, "after-torn"); err != nil {
		t.Errorf("MakeFile after torn-tail recovery: %v", err)
	}
	s.Close() //nolint:errcheck
}

// TestJournalNeverBehindSnapshot: a snapshot syncs the journal first, so a
// power cut that takes an async journal's unsynced tail never leaves the
// journal behind the snapshot. If it did, the recovered journal would reissue
// LSNs the snapshot claims, and the next recovery would skip the records
// written under them: here a plain process crash would lose them.
func TestJournalNeverBehindSnapshot(t *testing.T) {
	fsys := vfs.NewMemFS()
	s := openDurable(t, fsys, Config{Shards: 1, SnapshotEvery: 4, FsyncPolicy: wal.FsyncAsync})
	root, err := s.CreateUser(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("before-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.CrashShard(0)
	fsys.Crash()
	if err := s.RecoverShard(0); err != nil {
		t.Fatalf("RecoverShard after the power cut: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("after-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.ShardFingerprint(0)
	s.CrashShard(0)
	if err := s.RecoverShard(0); err != nil {
		t.Fatalf("RecoverShard after the process crash: %v", err)
	}
	if after := s.ShardFingerprint(0); after != before {
		t.Fatalf("a process crash lost acknowledged writes:\n  before %s\n  after  %s", before, after)
	}
}

// TestRecoverShardUnderTraffic recovers shard 0 while six committers make,
// fill and unlink files on the other shards, with the hashes shard 0's files
// hold: 20 times after a CrashShard, then 5 times after a fence that faultFS
// set, with no crash. No committer may be refused, shard 0 must come back as
// it was, and at the end every hash must count the live file nodes that hold
// it and Contents() must equal a cold reopen's. CI runs it under -race,
// several times: a recovery must not race the other shards' commits.
func TestRecoverShardUnderTraffic(t *testing.T) {
	f := &faultFS{MemFS: vfs.NewMemFS()}
	cfg := Config{Shards: 4, SnapshotEvery: 16, FsyncPolicy: wal.FsyncAsync}
	s := openDurable(t, f, cfg)
	hashes := make([]protocol.Hash, 4)
	for i := range hashes {
		hashes[i] = protocol.HashBytes([]byte{byte(i)})
	}
	// One owner on shard 0 and two committers on each other shard.
	var owner protocol.UserID
	roots := map[protocol.UserID]protocol.VolumeID{}
	perShard := make([]int, s.NumShards())
	for u := protocol.UserID(1); owner == 0 || len(roots) < 6; u++ {
		switch i := s.ShardFor(u); {
		case i == 0 && owner == 0:
			owner = u
		case i != 0 && perShard[i] < 2:
			perShard[i]++
			roots[u] = mustUser(t, s, u).ID
		}
	}
	root := mustUser(t, s, owner).ID
	for i, h := range hashes {
		n, err := s.MakeFile(owner, root, 0, fmt.Sprint(i))
		if err == nil {
			_, _, _, err = s.MakeContent(owner, root, n.ID, h, 100)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	shard0 := s.ShardFingerprint(0)

	// commit is a committer's n-th step on a bounded set of names: a make
	// (a re-make after the first 64 steps), a put that re-puts the file's
	// own hash every other pass over the names, and every 16th an unlink.
	commit := func(u protocol.UserID, n int) error {
		file, err := s.MakeFile(u, roots[u], 0, fmt.Sprint(n%64))
		if err != nil {
			return err
		}
		h := hashes[(n%64+n/128)%len(hashes)]
		if _, _, _, err := s.MakeContent(u, roots[u], file.ID, h, 100); err != nil {
			return err
		}
		if n%16 == 15 {
			_, _, _, err = s.Unlink(u, roots[u], file.ID)
		}
		return err
	}
	// underTraffic runs recover once every committer has committed, and
	// stops them after it.
	underTraffic := func(recover func()) {
		var started, done sync.WaitGroup
		stop := make(chan struct{})
		for u := range roots {
			started.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				for n := 0; ; n++ {
					err := commit(u, n)
					if n == 0 {
						started.Done()
					}
					if err != nil {
						t.Errorf("user %v on shard %d, step %d, during recovery: %v", u, s.ShardFor(u), n, err)
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		started.Wait()
		recover()
		close(stop)
		done.Wait()
	}

	underTraffic(func() {
		for range 20 {
			s.CrashShard(0)
			if err := s.RecoverShard(0); err != nil {
				t.Errorf("RecoverShard(0) after a crash: %v", err)
			}
		}
	})
	for range 5 {
		f.at = f.calls + 1 // the next mutating disk call fails
		if _, err := s.MakeFile(owner, root, 0, "refused"); !errors.Is(err, protocol.ErrUnavailable) {
			t.Fatalf("MakeFile on shard 0 over a failed write: %v, want ErrUnavailable", err)
		}
		underTraffic(func() {
			if err := s.RecoverShard(0); err != nil {
				t.Errorf("RecoverShard(0) of a fenced shard: %v", err)
			}
		})
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := s.ShardFingerprint(0); got != shard0 {
		t.Fatalf("shard 0 diverged across its recoveries:\n  before %s\n  after  %s", shard0, got)
	}
	requireRefsMatchNodes(t, s, "the recoveries")
	contents := *s.Contents()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, f, cfg)
	defer r.Close() //nolint:errcheck
	if got := *r.Contents(); got != contents {
		t.Fatalf("content registry after the recoveries %+v, a cold reopen's %+v", contents, got)
	}
}

// TestDamagedJournalRefused: a bit flip in a journal segment before the last
// is not a torn tail — those records were synced and acknowledged — so
// RecoverShard and a fresh Open both refuse the store with an error naming
// that segment's file, and nothing is truncated away.
func TestDamagedJournalRefused(t *testing.T) {
	segmentBytes = 256 // several segments from populate alone
	defer func() { segmentBytes = 0 }()
	fsys := vfs.NewMemFS()
	cfg := Config{Shards: 1, FsyncPolicy: wal.FsyncPerOp}
	s := openDurable(t, fsys, cfg)
	populate(t, s)
	s.CrashShard(0)
	names, err := fsys.ReadDir(s.ShardWALDir(0))
	if err != nil || len(names) < 3 {
		t.Fatalf("journal segments %v (%v): want at least 3", names, err)
	}
	path := filepath.Join(s.ShardWALDir(0), names[1])
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	f, err := fsys.OpenFile(path, vfs.CreateTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.RecoverShard(0); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("RecoverShard over a damaged segment: %v, want an error naming %s", err, path)
	}
	cfg.FS, cfg.Durability = fsys, storeRoot
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open over a damaged segment: %v, want an error naming %s", err, path)
	}
	if after, _ := fsys.ReadDir(s.ShardWALDir(0)); !slices.Equal(after, names) {
		t.Fatalf("refusing the store changed its journal: %v, was %v", after, names)
	}
}

// TestInMemoryStoreUnchanged pins that the zero-config store has no durable
// tier: Close is a no-op, recovery APIs refuse, and ops never journal.
func TestInMemoryStoreUnchanged(t *testing.T) {
	s := New(Config{Shards: 2})
	if _, journals := s.SyncCost(); s.dur != nil || journals {
		t.Fatal("in-memory store reports durability")
	}
	if _, err := s.CreateUser(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
	if err := s.RecoverShard(0); err == nil {
		t.Fatal("RecoverShard succeeded without durability")
	}
	if dir := s.ShardWALDir(0); dir != "" {
		t.Fatalf("in-memory store has a WAL dir: %q", dir)
	}
}
