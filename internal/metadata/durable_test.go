package metadata

import (
	"path/filepath"
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
	// A shared-then-deleted UDF exercises delete_volume + drop_share replay.
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
	// All but the torn final mutation must be present.
	nodes, _, err := s.GetFromScratch(1, root.ID)
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
