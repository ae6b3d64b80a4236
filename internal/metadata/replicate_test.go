package metadata

import (
	"errors"
	"strings"
	"testing"

	"u1/internal/protocol"
)

// usersInRegions returns one user id owned by each region of s, probing
// ascending ids through the shard hash.
func usersInRegions(t *testing.T, s *Store) []protocol.UserID {
	t.Helper()
	out := make([]protocol.UserID, s.Regions())
	found := 0
	for id := protocol.UserID(1); found < len(out) && id < 10_000; id++ {
		r := s.RegionOfUser(id)
		if out[r] == 0 {
			out[r] = id
			found++
		}
	}
	if found < len(out) {
		t.Fatalf("could not find a user id for every region")
	}
	return out
}

func newReplicatedStore(t *testing.T, delay int, eventual bool) *Store {
	t.Helper()
	return New(Config{Shards: 4, Regions: 2, ReplicationDelay: delay, EventualReads: eventual})
}

// seedTwoRegions provisions one user per region with a UDF and a file each.
func seedTwoRegions(t *testing.T, s *Store) []protocol.UserID {
	t.Helper()
	users := usersInRegions(t, s)
	for _, u := range users {
		if _, err := s.CreateUser(u); err != nil {
			t.Fatalf("CreateUser(%d): %v", u, err)
		}
		vol, err := s.CreateUDF(u, "~/udf")
		if err != nil {
			t.Fatalf("CreateUDF(%d): %v", u, err)
		}
		f, err := s.MakeFile(u, vol.ID, 0, "a.txt")
		if err != nil {
			t.Fatalf("MakeFile(%d): %v", u, err)
		}
		if _, _, _, err := s.MakeContent(u, vol.ID, f.ID, protocol.Hash{1}, 64); err != nil {
			t.Fatalf("MakeContent(%d): %v", u, err)
		}
	}
	return users
}

// requireConverged asserts every cross-region replica fingerprint matches its
// owner shard.
func requireConverged(t *testing.T, s *Store) {
	t.Helper()
	if s.repl != nil {
		if n := s.repl.m.backlogDepth.Value(); n != 0 {
			t.Fatalf("backlog not drained: %d records pending", n)
		}
	}
	for region := 0; region < s.Regions(); region++ {
		for i := 0; i < s.NumShards(); i++ {
			if s.RegionOf(i) == region {
				continue
			}
			if got, want := s.ReplicaFingerprint(region, i), s.ShardFingerprint(i); got != want {
				t.Fatalf("region %d replica of shard %d diverged:\n  replica %s\n  owner   %s", region, i, got, want)
			}
		}
	}
}

// TestReplicationConvergesToOwnerFingerprints pins the core replication
// invariant: after draining, every region's replica of every foreign shard is
// bit-identical to the owner.
func TestReplicationConvergesToOwnerFingerprints(t *testing.T) {
	s := newReplicatedStore(t, 1, false)
	seedTwoRegions(t, s)
	s.DrainReplication()
	requireConverged(t, s)
}

// TestReplicationDelayAgesRecords pins the delay semantics: a record
// published at tick E applies at tick E+delay, not earlier.
func TestReplicationDelayAgesRecords(t *testing.T) {
	const delay = 2
	s := newReplicatedStore(t, delay, true)
	users := seedTwoRegions(t, s)
	owner, reader := users[0], users[1]
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1].ID
	readerRegion := s.RegionOfUser(reader)
	ownerShard := s.ShardFor(owner)
	replicaHasVolume := func() bool {
		replica := s.repl.state[readerRegion].replicas[ownerShard]
		replica.RLockUncounted()
		_, ok := replica.volumes[udf]
		replica.RUnlockUncounted()
		return ok
	}

	// Tick 1 ships the records (stamped epoch 1); they ripen at epoch 1+delay.
	s.TickReplication()
	if replicaHasVolume() {
		t.Fatal("replica applied records before the delay elapsed")
	}
	s.TickReplication() // epoch 2: 1+2 > 2, still pending
	if replicaHasVolume() {
		t.Fatal("replica applied records one tick early")
	}
	s.TickReplication() // epoch 3: 1+2 <= 3, applies
	if !replicaHasVolume() {
		t.Fatal("replica missing volume after the delay elapsed")
	}
}

// TestRegionDownGuardsWritesAndServesReads pins the failure mode: mutations
// owned by a down region fail ErrUnavailable, while cross-region reads of its
// shards fail over to the reader region's replicas.
func TestRegionDownGuardsWritesAndServesReads(t *testing.T) {
	s := newReplicatedStore(t, 0, false)
	users := seedTwoRegions(t, s)
	owner, reader := users[0], users[1]
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1].ID
	// Grant the cross-region reader access so the failover read is
	// authorized at the replica.
	share, err := s.CreateShare(owner, udf, reader, "proj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcceptShare(reader, share.ID); err != nil {
		t.Fatal(err)
	}
	s.DrainReplication()

	down := s.RegionOfUser(owner)
	s.RegionDown(down)
	if _, err := s.MakeFile(owner, udf, 0, "b.txt"); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("write into down region: err=%v, want ErrUnavailable", err)
	}
	if _, err := s.CreateUDF(owner, "~/other"); !errors.Is(err, protocol.ErrUnavailable) {
		t.Fatalf("CreateUDF in down region: err=%v, want ErrUnavailable", err)
	}
	// Read-your-writes or not, a down owner region serves reads from the
	// reader's replica.
	if _, err := s.GetVolume(reader, udf); err != nil {
		t.Fatalf("failover read through replica: %v", err)
	}

	s.RegionRecover(down, s.RegionOfUser(reader))
	if _, err := s.MakeFile(owner, udf, 0, "b.txt"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestFailoverLosesNoAcknowledgedWrites pins the drill's zero-loss property:
// every write acknowledged by the owner region before it died — including
// records still in publication outboxes, never shipped by a tick — is in the
// surviving region's replicas after FailoverRegion.
func TestFailoverLosesNoAcknowledgedWrites(t *testing.T) {
	s := newReplicatedStore(t, 3, false)
	users := seedTwoRegions(t, s)
	owner := users[0]
	downRegion := s.RegionOfUser(owner)
	liveRegion := s.RegionOfUser(users[1])

	// Acked but never ticked: these sit in the outboxes.
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1].ID
	if _, err := s.MakeFile(owner, udf, 0, "late.txt"); err != nil {
		t.Fatal(err)
	}

	want := make(map[int]string)
	for i := 0; i < s.NumShards(); i++ {
		if s.RegionOf(i) == downRegion {
			want[i] = s.ShardFingerprint(i)
		}
	}
	s.RegionDown(downRegion)
	s.FailoverRegion(liveRegion)
	for i, fp := range want {
		if got := s.ReplicaFingerprint(liveRegion, i); got != fp {
			t.Fatalf("shard %d lost acked writes across failover:\n  replica %s\n  owner   %s", i, got, fp)
		}
	}

	// Failover re-applies are guarded, so a second replay must be a no-op.
	s.FailoverRegion(liveRegion)
	for i, fp := range want {
		if got := s.ReplicaFingerprint(liveRegion, i); got != fp {
			t.Fatalf("shard %d diverged on idempotent re-failover", i)
		}
	}
}

// TestRegionRecoverRestoresOwnersFromPeer pins the recovery half: after
// RegionRecover the dead region's owner shards are rebuilt bit-for-bit from
// the peer's replicas and serve writes again.
func TestRegionRecoverRestoresOwnersFromPeer(t *testing.T) {
	s := newReplicatedStore(t, 1, false)
	users := seedTwoRegions(t, s)
	s.DrainReplication()
	owner := users[0]
	downRegion := s.RegionOfUser(owner)
	liveRegion := s.RegionOfUser(users[1])

	want := make(map[int]string)
	for i := 0; i < s.NumShards(); i++ {
		if s.RegionOf(i) == downRegion {
			want[i] = s.ShardFingerprint(i)
		}
	}
	s.RegionDown(downRegion)
	s.RegionRecover(downRegion, liveRegion)
	for i, fp := range want {
		if got := s.ShardFingerprint(i); got != fp {
			t.Fatalf("shard %d state changed across down/recover:\n  got  %s\n  want %s", i, got, fp)
		}
	}
	if _, err := s.CreateUDF(owner, "~/fresh"); err != nil {
		t.Fatalf("write after region recovery: %v", err)
	}
}

// TestLastWriterWinsSkipsStaleGenerations pins the conflict rule directly: a
// replayed record whose generation does not advance the replica volume is
// skipped, and a generation tie goes to the higher origin region.
func TestLastWriterWinsSkipsStaleGenerations(t *testing.T) {
	s := newReplicatedStore(t, 0, false)
	users := seedTwoRegions(t, s)
	s.DrainReplication()
	owner, reader := users[0], users[1]
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1].ID
	readerRegion := s.RegionOfUser(reader)
	ownerShard := s.ShardFor(owner)

	st := s.repl.state[readerRegion]
	replica := st.replicas[ownerShard]
	replica.RLockUncounted()
	curGen := replica.volumes[udf].info.Generation
	replica.RUnlockUncounted()
	before := s.ReplicaFingerprint(readerRegion, ownerShard)

	// A stale record — generation below the replica's — must not apply.
	stale := journalRecord{
		Kind: recMakeNode,
		Node: protocol.NodeInfo{ID: 9999, Volume: udf, Kind: protocol.KindFile, Name: "stale", Generation: curGen - 1},
	}
	apply := func(rec journalRecord) {
		b := replBatch{shard: ownerShard, epoch: s.repl.epoch, recs: encodeRecords(rec), n: 1}
		s.repl.mu.Lock()
		st.pending[ownerShard]++ // the batch arrives outside ship
		s.repl.applyBatchLocked(st, &b)
		s.repl.mu.Unlock()
	}
	skippedBefore := s.repl.m.lwwSkipped.Value()
	apply(stale)
	if got := s.ReplicaFingerprint(readerRegion, ownerShard); got != before {
		t.Fatalf("stale-generation record mutated the replica")
	}
	if s.repl.m.lwwSkipped.Value() != skippedBefore+1 {
		t.Fatalf("stale record not counted as lww_skipped")
	}

	// A tie on generation loses to an equal-or-higher recorded origin.
	tie := stale
	tie.Node.Generation = curGen
	s.repl.mu.Lock()
	st.lastOrigin[udf] = s.Regions() - 1 // highest region already won this gen
	s.repl.mu.Unlock()
	apply(tie)
	if got := s.ReplicaFingerprint(readerRegion, ownerShard); got != before {
		t.Fatalf("generation-tie record from a losing origin mutated the replica")
	}
}

// TestCrossRegionShareRevocationFlushesGranteeRegion is the regression test
// for the satellite bugfix: when a shared volume dies at the owner, the
// grantee region's replica still holds the grant until the delete record ages
// through the replication backlog — and without the eager tombstone flush the
// replica's access check kept authorizing the revoked share for the whole
// replication delay (the PR 4 DropCachedToken lesson, replayed against the
// replicated grant index).
func TestCrossRegionShareRevocationFlushesGranteeRegion(t *testing.T) {
	s := newReplicatedStore(t, 4, true)
	users := seedTwoRegions(t, s)
	owner, grantee := users[0], users[1]
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1].ID
	share, err := s.CreateShare(owner, udf, grantee, "proj", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcceptShare(grantee, share.ID); err != nil {
		t.Fatal(err)
	}
	s.DrainReplication()

	granteeRegion := s.RegionOfUser(grantee)
	ownerShard := s.ShardFor(owner)
	st := s.repl.state[granteeRegion]
	replica := st.replicas[ownerShard]
	replica.RLockUncounted()
	err = checkAccessLocked(replica, replica.volumes[udf], grantee, false)
	replica.RUnlockUncounted()
	if err != nil {
		t.Fatalf("replicated grant should authorize before revocation: %v", err)
	}

	if _, _, err := s.DeleteVolume(owner, udf); err != nil {
		t.Fatal(err)
	}

	// The delete is now in the grantee region's backlog for `delay` ticks,
	// and the replica still holds the volume row and the grant. The access
	// check must already refuse the revoked share.
	replica.RLockUncounted()
	vr := replica.volumes[udf]
	replica.RUnlockUncounted()
	if vr == nil {
		t.Fatalf("test invalid: delete already applied at the replica, no revocation window to pin")
	}
	replica.RLockUncounted()
	err = checkAccessLocked(replica, vr, grantee, false)
	replica.RUnlockUncounted()
	if !errors.Is(err, protocol.ErrPermission) {
		t.Fatalf("revoked cross-region share still authorizes through the grantee region's replica: err=%v", err)
	}

	// Once the delete record ages in, the tombstone is cleaned up with it.
	s.DrainReplication()
	replica.RLockUncounted()
	_, stillThere := replica.volumes[udf]
	replica.RUnlockUncounted()
	if stillThere {
		t.Fatalf("delete record never applied at the replica")
	}
	st.revMu.Lock()
	_, tomb := st.revoked[share.ID]
	st.revMu.Unlock()
	if tomb {
		t.Fatalf("revocation tombstone leaked after the delete record applied")
	}
}

// TestRegionsClampAndDisable pins the config edges: Regions ≤ 1 disables
// replication entirely, and Regions > Shards is refused rather than clamped.
func TestRegionsClampAndDisable(t *testing.T) {
	if s := New(Config{Shards: 4, Regions: 1}); s.repl != nil {
		t.Fatal("Regions=1 must not enable replication")
	}
	if _, err := Open(Config{Shards: 2, Regions: 8}); err == nil || !strings.Contains(err.Error(), "Regions") {
		t.Fatalf("Open(Regions 8 over 2 shards) = %v, want an error naming Regions", err)
	}
	if s := New(Config{Shards: 2, Regions: 2}); s.Regions() != 2 {
		t.Fatalf("Regions = %d, want 2", s.Regions())
	}
}
