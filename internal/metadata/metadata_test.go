package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"u1/internal/protocol"
)

func newTestStore() *Store { return New(Config{Shards: 10}) }

func mustUser(t *testing.T, s *Store, id protocol.UserID) protocol.VolumeInfo {
	t.Helper()
	v, err := s.CreateUser(id)
	if err != nil {
		t.Fatalf("CreateUser(%v): %v", id, err)
	}
	return v
}

func TestCreateUserIdempotent(t *testing.T) {
	s := newTestStore()
	v1 := mustUser(t, s, 1)
	v2 := mustUser(t, s, 1)
	if v1.ID != v2.ID {
		t.Errorf("re-create returned different root volume: %v vs %v", v1.ID, v2.ID)
	}
	if v1.Type != protocol.VolumeRoot {
		t.Errorf("root volume type = %v", v1.Type)
	}
	ud, err := s.GetUserData(1)
	if err != nil || ud.RootVolume != v1.ID || ud.Volumes != 1 {
		t.Errorf("GetUserData = %+v, %v", ud, err)
	}
}

func TestGetUserDataUnknown(t *testing.T) {
	s := newTestStore()
	if _, err := s.GetUserData(42); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestShardRoutingDeterministic(t *testing.T) {
	s := newTestStore()
	for u := protocol.UserID(0); u < 100; u++ {
		a, b := s.ShardFor(u), s.ShardFor(u)
		if a != b {
			t.Fatalf("routing of %v not deterministic", u)
		}
		if a < 0 || a >= s.NumShards() {
			t.Fatalf("shard %d out of range", a)
		}
	}
}

func TestShardRoutingSpreads(t *testing.T) {
	s := newTestStore()
	counts := make([]int, s.NumShards())
	for u := protocol.UserID(0); u < 10000; u++ {
		counts[s.ShardFor(u)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("shard %d holds %d of 10000 users; routing is skewed", i, c)
		}
	}
}

func TestMakeFileAndDir(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	dir, err := s.MakeDir(1, root.ID, 0, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if dir.Kind != protocol.KindDir || dir.Generation != 1 {
		t.Errorf("dir = %+v", dir)
	}
	file, err := s.MakeFile(1, root.ID, dir.ID, "a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if file.Parent != dir.ID || file.Generation != 2 {
		t.Errorf("file = %+v", file)
	}
	// Idempotent re-make returns the same node.
	again, err := s.MakeFile(1, root.ID, dir.ID, "a.txt")
	if err != nil || again.ID != file.ID {
		t.Errorf("re-make: %+v, %v", again, err)
	}
	// Same name, different kind: conflict.
	if _, err := s.MakeDir(1, root.ID, dir.ID, "a.txt"); !errors.Is(err, protocol.ErrExists) {
		t.Errorf("kind conflict err = %v", err)
	}
	// Empty name rejected.
	if _, err := s.MakeFile(1, root.ID, 0, ""); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("empty name err = %v", err)
	}
	// Parent must be a directory.
	if _, err := s.MakeFile(1, root.ID, file.ID, "x"); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("file parent err = %v", err)
	}
	// Unknown parent.
	if _, err := s.MakeFile(1, root.ID, 9999, "x"); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("missing parent err = %v", err)
	}
	// Unknown volume.
	if _, err := s.MakeFile(1, 9999, 0, "x"); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("missing volume err = %v", err)
	}
}

func TestMakeContentAndDedup(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	f, err := s.MakeFile(1, root.ID, 0, "song.mp3")
	if err != nil {
		t.Fatal(err)
	}
	h := protocol.HashBytes([]byte("content-1"))
	if _, ok, _ := s.LookupContent(h); ok {
		t.Fatal("content should not exist yet")
	}
	info, freed, wasUpdate, err := s.MakeContent(1, root.ID, f.ID, h, 1000)
	if err != nil || freed != nil || wasUpdate {
		t.Fatalf("MakeContent: %v freed=%v update=%v", err, freed, wasUpdate)
	}
	if info.Hash != h || info.Size != 1000 {
		t.Errorf("node info = %+v", info)
	}
	if size, ok, _ := s.LookupContent(h); !ok || size != 1000 {
		t.Error("content lookup after make")
	}

	// Second user stores the same content: dedup, logical 2x unique 1x.
	root2 := mustUser(t, s, 2)
	f2, _ := s.MakeFile(2, root2.ID, 0, "copy.mp3")
	if _, _, _, err := s.MakeContent(2, root2.ID, f2.ID, h, 1000); err != nil {
		t.Fatal(err)
	}
	cs := s.Contents()
	if cs.UniqueContents != 1 || cs.LogicalBytes != 2000 || cs.UniqueBytes != 1000 {
		t.Errorf("content stats = %+v", cs)
	}
	if dr := cs.DedupRatio(); dr != 0.5 {
		t.Errorf("dedup ratio = %v", dr)
	}

	// Update the first file: old hash released but still referenced by user 2.
	h2 := protocol.HashBytes([]byte("content-2"))
	_, freedHash, wasUpdate2, err := s.MakeContent(1, root.ID, f.ID, h2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if freedHash != nil {
		t.Error("old content still referenced elsewhere; must not be freed")
	}
	if !wasUpdate2 {
		t.Error("replacing content must be flagged as an update")
	}

	// Deleting user 2's file releases the last ref of h.
	removed, _, freed2, err := s.Unlink(2, root2.ID, f2.ID)
	if err != nil || len(removed) != 1 {
		t.Fatalf("unlink: %v removed=%d", err, len(removed))
	}
	if len(freed2) != 1 || freed2[0] != h {
		t.Errorf("freed = %v, want [%v]", freed2, h)
	}
	// Zero hash rejected.
	if _, _, _, err := s.MakeContent(1, root.ID, f.ID, protocol.Hash{}, 1); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("zero hash err = %v", err)
	}
}

func TestUnlinkCascade(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	dir, _ := s.MakeDir(1, root.ID, 0, "project")
	sub, _ := s.MakeDir(1, root.ID, dir.ID, "src")
	f1, _ := s.MakeFile(1, root.ID, dir.ID, "README")
	f2, _ := s.MakeFile(1, root.ID, sub.ID, "main.go")
	h := protocol.HashBytes([]byte("code"))
	s.MakeContent(1, root.ID, f2.ID, h, 42)

	removed, gen, freed, err := s.Unlink(1, root.ID, dir.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 {
		t.Errorf("removed %d nodes, want 4 (dir, sub, 2 files)", len(removed))
	}
	if len(freed) != 1 {
		t.Errorf("freed %d contents, want 1", len(freed))
	}
	// All removed nodes stamped with the same generation.
	for _, n := range removed {
		if n.Generation != gen {
			t.Errorf("node %v generation %d, want %d", n.ID, n.Generation, gen)
		}
	}
	// Everything is gone.
	for _, id := range []protocol.NodeID{dir.ID, sub.ID, f1.ID, f2.ID} {
		if _, err := s.GetNode(1, root.ID, id); !errors.Is(err, protocol.ErrNotFound) {
			t.Errorf("node %v still reachable", id)
		}
	}
	// Unlinking the volume root is rejected.
	rootNode, _ := s.GetRoot(1)
	if _, _, _, err := s.Unlink(1, root.ID, rootNode.ID); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("unlink root err = %v", err)
	}
	// Unlinking a missing node.
	if _, _, _, err := s.Unlink(1, root.ID, 9999); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("unlink missing err = %v", err)
	}
}

func TestMove(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	a, _ := s.MakeDir(1, root.ID, 0, "a")
	b, _ := s.MakeDir(1, root.ID, 0, "b")
	f, _ := s.MakeFile(1, root.ID, a.ID, "f.txt")

	moved, err := s.Move(1, root.ID, f.ID, b.ID, "g.txt")
	if err != nil {
		t.Fatal(err)
	}
	if moved.Parent != b.ID || moved.Name != "g.txt" {
		t.Errorf("moved = %+v", moved)
	}
	// The old path is free again.
	if _, err := s.MakeFile(1, root.ID, a.ID, "f.txt"); err != nil {
		t.Errorf("old name should be reusable: %v", err)
	}
	// Name collision at destination.
	if _, err := s.Move(1, root.ID, f.ID, b.ID, "g.txt"); !errors.Is(err, protocol.ErrExists) {
		t.Errorf("collision err = %v", err)
	}
	// Cycle rejection: cannot move a dir under its own subtree.
	c, _ := s.MakeDir(1, root.ID, a.ID, "c")
	if _, err := s.Move(1, root.ID, a.ID, c.ID, "a"); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("cycle err = %v", err)
	}
	// Moving the volume root is rejected.
	rootNode, _ := s.GetRoot(1)
	if _, err := s.Move(1, root.ID, rootNode.ID, b.ID, "r"); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("move root err = %v", err)
	}
	// Empty target name.
	if _, err := s.Move(1, root.ID, f.ID, b.ID, ""); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("empty name err = %v", err)
	}
}

func TestGetDeltaBasics(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	d, _ := s.MakeDir(1, root.ID, 0, "d")
	f, _ := s.MakeFile(1, root.ID, d.ID, "f")
	deltas, gen, err := s.GetDelta(1, root.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 || gen != 2 {
		t.Fatalf("deltas=%d gen=%d", len(deltas), gen)
	}
	// Delta from the current generation is empty.
	deltas, _, err = s.GetDelta(1, root.ID, gen)
	if err != nil || len(deltas) != 0 {
		t.Errorf("up-to-date delta = %v, %v", deltas, err)
	}
	// Deletion shows up as a tombstone.
	s.Unlink(1, root.ID, f.ID)
	deltas, _, err = s.GetDelta(1, root.ID, gen)
	if err != nil || len(deltas) != 1 || !deltas[0].Deleted {
		t.Errorf("tombstone delta = %+v, %v", deltas, err)
	}
}

func TestGetDeltaTruncationForcesRescan(t *testing.T) {
	s := New(Config{Shards: 2, DeltaLogLimit: 8})
	root := mustUser(t, s, 1)
	for i := 0; i < 50; i++ {
		if _, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.GetDelta(1, root.ID, 0)
	if !errors.Is(err, ErrDeltaTruncated) {
		t.Fatalf("expected truncated delta, got %v", err)
	}
	// ErrDeltaTruncated maps onto the conflict status for the wire.
	if protocol.StatusOf(err) != protocol.StatusConflict {
		t.Errorf("status = %v", protocol.StatusOf(err))
	}
	// The rescan path returns everything.
	nodes, gen, err := s.GetFromScratch(1, root.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 51 { // 50 files + volume root dir
		t.Errorf("from scratch returned %d nodes", len(nodes))
	}
	if gen != 50 {
		t.Errorf("generation = %d", gen)
	}
	// A recent generation is still servable from the log.
	deltas, _, err := s.GetDelta(1, root.ID, gen-1)
	if err != nil || len(deltas) != 1 {
		t.Errorf("recent delta: %v, %v", deltas, err)
	}
}

func TestUDFLifecycle(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	udf, err := s.CreateUDF(1, "~/Music")
	if err != nil {
		t.Fatal(err)
	}
	if udf.Type != protocol.VolumeUDF {
		t.Errorf("type = %v", udf.Type)
	}
	// Duplicate path rejected.
	if _, err := s.CreateUDF(1, "~/Music"); !errors.Is(err, protocol.ErrExists) {
		t.Errorf("dup err = %v", err)
	}
	if _, err := s.CreateUDF(1, ""); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("empty path err = %v", err)
	}
	vols, err := s.ListVolumes(1)
	if err != nil || len(vols) != 2 {
		t.Fatalf("volumes = %v, %v", vols, err)
	}

	// Fill and delete the UDF.
	f, _ := s.MakeFile(1, udf.ID, 0, "x.mp3")
	h := protocol.HashBytes([]byte("tune"))
	s.MakeContent(1, udf.ID, f.ID, h, 10)
	removed, freed, err := s.DeleteVolume(1, udf.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 { // root dir + file
		t.Errorf("removed %d nodes", len(removed))
	}
	if len(freed) != 1 {
		t.Errorf("freed %d contents", len(freed))
	}
	if _, err := s.GetVolume(1, udf.ID); !errors.Is(err, protocol.ErrNotFound) {
		t.Error("volume should be gone")
	}
	// The root volume cannot be deleted.
	rootVol := vols[0]
	if rootVol.Type != protocol.VolumeRoot {
		rootVol = vols[1]
	}
	if _, _, err := s.DeleteVolume(1, rootVol.ID); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("delete root err = %v", err)
	}
}

func TestSharingAcrossShards(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	mustUser(t, s, 2)
	udf, _ := s.CreateUDF(1, "~/Shared")
	f, _ := s.MakeFile(1, udf.ID, 0, "doc.txt")

	// Before sharing, user 2 has no access.
	if _, err := s.GetNode(2, udf.ID, f.ID); !errors.Is(err, protocol.ErrPermission) {
		t.Errorf("pre-share access err = %v", err)
	}

	share, err := s.CreateShare(1, udf.ID, 2, "our-docs", false)
	if err != nil {
		t.Fatal(err)
	}
	// Not accepted yet: still no access, but visible in ListShares.
	if _, err := s.GetNode(2, udf.ID, f.ID); !errors.Is(err, protocol.ErrPermission) {
		t.Errorf("unaccepted access err = %v", err)
	}
	shares, _ := s.ListShares(2)
	if len(shares) != 1 || shares[0].ID != share.ID || shares[0].Accepted {
		t.Fatalf("grantee shares = %+v", shares)
	}

	if _, err := s.AcceptShare(2, share.ID); err != nil {
		t.Fatal(err)
	}
	// Now the grantee can read and write.
	if _, err := s.GetNode(2, udf.ID, f.ID); err != nil {
		t.Errorf("post-accept read: %v", err)
	}
	if _, err := s.MakeFile(2, udf.ID, 0, "from-2.txt"); err != nil {
		t.Errorf("post-accept write: %v", err)
	}
	// The shared volume appears in the grantee's volume list as shared.
	vols, _ := s.ListVolumes(2)
	var foundShared bool
	for _, v := range vols {
		if v.ID == udf.ID && v.Type == protocol.VolumeShared {
			foundShared = true
		}
	}
	if !foundShared {
		t.Errorf("shared volume missing from ListVolumes: %+v", vols)
	}
	// Owner sees the outgoing share.
	ownerShares, _ := s.ListShares(1)
	if len(ownerShares) != 1 || !ownerShares[0].Accepted {
		t.Errorf("owner shares = %+v", ownerShares)
	}
}

func TestSharingReadOnly(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	mustUser(t, s, 2)
	udf, _ := s.CreateUDF(1, "~/RO")
	share, _ := s.CreateShare(1, udf.ID, 2, "ro", true)
	s.AcceptShare(2, share.ID)
	if _, _, err := s.GetFromScratch(2, udf.ID); err != nil {
		t.Errorf("read-only read: %v", err)
	}
	if _, err := s.MakeFile(2, udf.ID, 0, "nope"); !errors.Is(err, protocol.ErrPermission) {
		t.Errorf("read-only write err = %v", err)
	}
}

func TestShareValidation(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	mustUser(t, s, 2)
	udf, _ := s.CreateUDF(1, "~/V")
	if _, err := s.CreateShare(1, udf.ID, 1, "self", false); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("self share err = %v", err)
	}
	if _, err := s.CreateShare(2, udf.ID, 1, "notmine", false); !errors.Is(err, protocol.ErrPermission) {
		t.Errorf("foreign share err = %v", err)
	}
	if _, err := s.CreateShare(1, udf.ID, 99, "ghost", false); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("ghost grantee err = %v", err)
	}
	if _, err := s.CreateShare(1, 9999, 2, "novol", false); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("ghost volume err = %v", err)
	}
	if _, err := s.AcceptShare(2, 999); !errors.Is(err, protocol.ErrNotFound) {
		t.Errorf("ghost accept err = %v", err)
	}
	// Duplicate share to the same grantee.
	if _, err := s.CreateShare(1, udf.ID, 2, "a", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateShare(1, udf.ID, 2, "b", false); !errors.Is(err, protocol.ErrExists) {
		t.Errorf("dup share err = %v", err)
	}
}

func TestDeleteVolumeTearsDownShares(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	mustUser(t, s, 2)
	udf, _ := s.CreateUDF(1, "~/S")
	share, _ := s.CreateShare(1, udf.ID, 2, "s", false)
	s.AcceptShare(2, share.ID)
	if _, _, err := s.DeleteVolume(1, udf.ID); err != nil {
		t.Fatal(err)
	}
	shares, _ := s.ListShares(2)
	if len(shares) != 0 {
		t.Errorf("grantee still sees shares: %+v", shares)
	}
	vols, _ := s.ListVolumes(2)
	for _, v := range vols {
		if v.ID == udf.ID {
			t.Error("deleted volume still listed")
		}
	}
}

func TestUploadJobLifecycle(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	f, _ := s.MakeFile(1, root.ID, 0, "big.iso")
	h := protocol.HashBytes([]byte("iso"))
	now := time.Unix(1390000000, 0)

	job, err := s.MakeUploadJob(1, root.ID, f.ID, h, 12<<20, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetUploadJobMultipartID(1, job.ID, "s3-mp-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AddPartToUploadJob(1, job.ID, 4<<20, now.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.GetUploadJob(1, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parts != 3 || got.BytesDone != 12<<20 || got.MultipartID != "s3-mp-1" {
		t.Errorf("job = %+v", got)
	}
	// Touch within the horizon: stays alive.
	expired, err := s.TouchUploadJob(1, job.ID, now.Add(time.Hour))
	if err != nil || expired {
		t.Errorf("touch: expired=%v err=%v", expired, err)
	}
	// Commit: delete.
	if err := s.DeleteUploadJob(1, job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetUploadJob(1, job.ID); !errors.Is(err, protocol.ErrNotFound) {
		t.Error("job should be gone after delete")
	}
}

func TestUploadJobGC(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	f, _ := s.MakeFile(1, root.ID, 0, "zombie")
	now := time.Unix(1390000000, 0)
	job, _ := s.MakeUploadJob(1, root.ID, f.ID, protocol.HashBytes([]byte("z")), 1, now)

	// Touch after the one-week horizon reports expiry and collects the job.
	expired, err := s.TouchUploadJob(1, job.ID, now.Add(UploadJobMaxAge+time.Hour))
	if err != nil || !expired {
		t.Errorf("expired=%v err=%v", expired, err)
	}
	if _, err := s.GetUploadJob(1, job.ID); !errors.Is(err, protocol.ErrNotFound) {
		t.Error("expired job should be collected")
	}

	// The periodic sweep also collects stale jobs.
	j2, _ := s.MakeUploadJob(1, root.ID, f.ID, protocol.HashBytes([]byte("z2")), 1, now)
	if swept := s.SweepUploadJobs(now.Add(UploadJobMaxAge + time.Minute)); swept != 1 {
		t.Errorf("swept = %d, want 1", swept)
	}
	if _, err := s.GetUploadJob(1, j2.ID); !errors.Is(err, protocol.ErrNotFound) {
		t.Error("swept job should be gone")
	}
	// Wrong user cannot see another user's job.
	mustUser(t, s, 2)
	j3, _ := s.MakeUploadJob(1, root.ID, f.ID, protocol.HashBytes([]byte("z3")), 1, now)
	if _, err := s.GetUploadJob(2, j3.ID); !errors.Is(err, protocol.ErrNotFound) {
		t.Error("cross-user job access should 404")
	}
}

func TestShardLoadCounters(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	s.MakeFile(1, root.ID, 0, "f")
	s.ListVolumes(1)
	reads, writes := s.ShardLoads()
	var r, w uint64
	for i := range reads {
		r += reads[i]
		w += writes[i]
	}
	if w < 2 { // CreateUser + MakeFile
		t.Errorf("writes = %d", w)
	}
	if r < 1 { // ListVolumes
		t.Errorf("reads = %d", r)
	}
}

// TestConcurrentUsers hammers the store from many goroutines; run with -race
// to exercise the locking discipline, including cross-shard shares.
func TestConcurrentUsers(t *testing.T) {
	s := newTestStore()
	const users = 16
	for u := protocol.UserID(1); u <= users; u++ {
		mustUser(t, s, u)
	}
	var wg sync.WaitGroup
	for u := protocol.UserID(1); u <= users; u++ {
		wg.Add(1)
		go func(u protocol.UserID) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(u)))
			udf, err := s.CreateUDF(u, "~/W")
			if err != nil {
				t.Errorf("user %v: %v", u, err)
				return
			}
			var files []protocol.NodeID
			for i := 0; i < 50; i++ {
				switch r.Intn(5) {
				case 0, 1:
					f, err := s.MakeFile(u, udf.ID, 0, fmt.Sprintf("f%d", i))
					if err != nil {
						t.Errorf("make: %v", err)
						return
					}
					files = append(files, f.ID)
					h := protocol.HashBytes([]byte{byte(r.Intn(8))}) // shared universe → dedup races
					s.MakeContent(u, udf.ID, f.ID, h, uint64(r.Intn(1000)+1))
				case 2:
					if len(files) > 0 {
						s.Unlink(u, udf.ID, files[0])
						files = files[1:]
					}
				case 3:
					s.GetDelta(u, udf.ID, 0)
					s.ListVolumes(u)
				case 4:
					to := protocol.UserID(r.Intn(users) + 1)
					if to != u {
						s.CreateShare(u, udf.ID, to, "x", r.Intn(2) == 0)
					}
				}
			}
		}(u)
	}
	wg.Wait()
	// The dedup accounting must be consistent after the dust settles.
	cs := s.Contents()
	if cs.UniqueBytes > cs.LogicalBytes {
		t.Errorf("unique bytes %d exceed logical bytes %d", cs.UniqueBytes, cs.LogicalBytes)
	}
}

// TestGenerationMonotonic checks the core sync invariant: volume generations
// only move forward, and every logged mutation carries the generation it
// created.
func TestGenerationMonotonic(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	r := rand.New(rand.NewSource(99))
	var lastGen protocol.Generation
	var files []protocol.NodeID
	for i := 0; i < 300; i++ {
		var gen protocol.Generation
		switch r.Intn(3) {
		case 0:
			n, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("n%d", i))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, n.ID)
			gen = n.Generation
		case 1:
			if len(files) == 0 {
				continue
			}
			n, _, _, err := s.MakeContent(1, root.ID, files[r.Intn(len(files))],
				protocol.HashBytes([]byte{byte(i)}), uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			gen = n.Generation
		case 2:
			if len(files) == 0 {
				continue
			}
			idx := r.Intn(len(files))
			_, g, _, err := s.Unlink(1, root.ID, files[idx])
			if err != nil {
				t.Fatal(err)
			}
			files = append(files[:idx], files[idx+1:]...)
			gen = g
		}
		if gen <= lastGen {
			t.Fatalf("generation went backwards: %d after %d", gen, lastGen)
		}
		lastGen = gen
	}
}

// TestDeltaReplayMatchesScratch is the synchronization soundness property: a
// client holding generation g that applies GetDelta(g) must end with exactly
// the node set GetFromScratch reports.
func TestDeltaReplayMatchesScratch(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	r := rand.New(rand.NewSource(7))

	// Client state: node set at generation 0.
	local := map[protocol.NodeID]protocol.NodeInfo{}
	nodes, gen0, err := s.GetFromScratch(1, root.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nodes {
		local[e.Node.ID] = e.Node
	}

	// Server-side churn.
	var files []protocol.NodeID
	for i := 0; i < 100; i++ {
		switch r.Intn(3) {
		case 0, 1:
			n, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("d%d", i))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, n.ID)
		case 2:
			if len(files) > 0 {
				s.Unlink(1, root.ID, files[0])
				files = files[1:]
			}
		}
	}

	// Replay the delta on the client state.
	deltas, _, err := s.GetDelta(1, root.ID, gen0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if d.Deleted {
			delete(local, d.Node.ID)
		} else {
			local[d.Node.ID] = d.Node
		}
	}

	// Compare against the authoritative listing.
	want, _, err2 := s.GetFromScratch(1, root.ID)
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(local) != len(want) {
		t.Fatalf("replayed %d nodes, scratch has %d", len(local), len(want))
	}
	for _, e := range want {
		n := e.Node
		got, ok := local[n.ID]
		if !ok {
			t.Fatalf("node %v missing after replay", n.ID)
		}
		if got != n {
			t.Errorf("node %v diverged: %+v vs %+v", n.ID, got, n)
		}
	}
}

func TestDeltaLogTinyLimits(t *testing.T) {
	// Regression: DeltaLogLimit 1 halves to drop = 0 and used to index
	// log[-1] on the second mutation of any volume. Limits 1 and 2 must
	// trim without panicking and keep GetDelta coherent (either serve the
	// surviving suffix or demand a rescan, never a partial view).
	for _, limit := range []int{1, 2} {
		s := New(Config{Shards: 2, DeltaLogLimit: limit})
		root := mustUser(t, s, 1)
		for i := 0; i < 8; i++ {
			if _, err := s.MakeFile(1, root.ID, 0, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatalf("limit %d: MakeFile %d: %v", limit, i, err)
			}
		}
		if _, _, err := s.GetDelta(1, root.ID, 0); !errors.Is(err, ErrDeltaTruncated) {
			t.Errorf("limit %d: delta from 0 should be truncated, got %v", limit, err)
		}
		vol, err := s.GetVolume(1, root.ID)
		if err != nil {
			t.Fatalf("limit %d: GetVolume: %v", limit, err)
		}
		if deltas, gen, err := s.GetDelta(1, root.ID, vol.Generation); err != nil || gen != vol.Generation || len(deltas) != 0 {
			t.Errorf("limit %d: up-to-date delta = %v entries, gen %d, err %v", limit, len(deltas), gen, err)
		}
	}
}

func TestLookupContentZeroHash(t *testing.T) {
	s := newTestStore()
	mustUser(t, s, 1)
	if _, _, err := s.LookupContent(protocol.Hash{}); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("zero-hash probe: err = %v, want ErrBadRequest", err)
	}
}

// TestInMemoryMutationLeavesNoJournalRecord is the allocation guard of the
// journal call: with no durable tier and a single region there is no sink for
// a mutation's record, so a MakeFile allocates the node row it keeps and
// nothing else (map and log growth amortize below AllocsPerRun's integer
// average).
func TestInMemoryMutationLeavesNoJournalRecord(t *testing.T) {
	s := newTestStore()
	root := mustUser(t, s, 1)
	names := make([]string, 2001)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(names)-1, func() {
		if _, err := s.MakeFile(1, root.ID, 0, names[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("MakeFile allocates %.0f times, want 1 (the node row)", allocs)
	}
}
