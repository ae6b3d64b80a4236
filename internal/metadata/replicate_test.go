package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
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
// records in the replication logs' tails, never sealed by a tick — is in the
// surviving region's replicas after FailoverRegion.
func TestFailoverLosesNoAcknowledgedWrites(t *testing.T) {
	s := newReplicatedStore(t, 3, false)
	users := seedTwoRegions(t, s)
	owner := users[0]
	downRegion := s.RegionOfUser(owner)
	liveRegion := s.RegionOfUser(users[1])

	// Acked but never ticked: these sit in the logs' tails.
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

	// The cursors now stand at the logs' ends, so a second failover applies
	// nothing.
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

// TestReplicaDivergencePanics pins the invariant that replaced a conflict
// rule: each record reaches a replica once, in owner order, so a record that
// does not advance its volume's generation there means the replica diverged,
// and applying it panics with the shard and the record named.
func TestReplicaDivergencePanics(t *testing.T) {
	s := newReplicatedStore(t, 0, false)
	users := seedTwoRegions(t, s)
	s.DrainReplication()
	owner := users[0]
	vols, err := s.ListVolumes(owner)
	if err != nil {
		t.Fatal(err)
	}
	udf := vols[len(vols)-1]
	ownerShard := s.ShardFor(owner)

	// The volume's last record again: its generation is the replica's own.
	stale := journalRecord{
		Kind: recMakeNode,
		Node: protocol.NodeInfo{ID: 9999, Volume: udf.ID, Kind: protocol.KindFile, Name: "stale", Generation: udf.Generation},
	}
	if _, err := s.repl.logs[ownerShard].append(&stale, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{fmt.Sprintf("shard %d", ownerShard), "make_node", "Name:stale"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	s.TickReplication()
}

// failoverOps is the op sequence TestFailoverEnumeration kills regions in:
// failoverUsers CreateUser calls, then opMix steps with deleteSharedBothWays
// halfway, and a replication tick after every tenth op.
const (
	failoverOps   = 200
	failoverUsers = 12
)

// runFailoverOps runs the first n ops of the sequence on s.
func runFailoverOps(t *testing.T, s *Store, n int) {
	d := &opMix{t: t, s: s, rng: rand.New(rand.NewSource(42))}
	for u := protocol.UserID(failoverUsers + 1); u <= failoverUsers+4; u++ {
		d.pool = append(d.pool, u)
	}
	for i := 0; i < n; i++ {
		switch {
		case i < failoverUsers:
			u := protocol.UserID(i + 1)
			if _, err := s.CreateUser(u); err != nil {
				t.Fatal(err)
			}
			d.users = append(d.users, u)
		case i == failoverOps/2:
			d.deleteSharedBothWays()
		default:
			d.step()
		}
		if i%10 == 9 {
			s.TickReplication()
		}
	}
}

// TestFailoverEnumeration kills each region in turn at every op boundary of
// a seeded op sequence — cross-region shares and their acceptance, volume
// deletes with grantees on the owner's shard and on others — on 2 regions
// over 4 shards and on 3 over 6, at replication delays 0, 1 and 2. The dead
// region's owner shards are crashed and their write locks held by the test,
// so failover can read nothing the dead region owned: FailoverRegion must
// return, and the survivor's replicas must equal the dead owners at the
// moment of death. RegionRecover must then rebuild those owners, and every
// replica must equal its owner once drained.
func TestFailoverEnumeration(t *testing.T) {
	for _, layout := range []struct{ regions, shards int }{{2, 4}, {3, 6}} {
		for delay := 0; delay <= 2; delay++ {
			t.Run(fmt.Sprintf("regions=%d/delay=%d", layout.regions, delay), func(t *testing.T) {
				cfg := Config{Shards: layout.shards, Regions: layout.regions, ReplicationDelay: delay}
				for dead := 0; dead < layout.regions; dead++ {
					for p := 0; p <= failoverOps; p++ {
						s := New(cfg)
						runFailoverOps(t, s, p)
						killRegion(t, s, dead, (dead+1)%layout.regions, p)
					}
				}
			})
		}
	}
}

// killRegion fails region dead of s over to survivor, then recovers it, after
// op p of the sequence.
func killRegion(t *testing.T, s *Store, dead, survivor, p int) {
	t.Helper()
	want := make(map[int]string)
	var owners []*shard
	for i, sh := range s.shards {
		if s.RegionOf(i) == dead {
			want[i] = s.ShardFingerprint(i)
			owners = append(owners, sh)
		}
	}
	s.RegionDown(dead)
	for _, sh := range owners {
		s.CrashShard(sh.id)
		sh.LockUncounted()
	}
	unlock := func() {
		for _, sh := range owners {
			sh.UnlockUncounted()
		}
	}
	done := make(chan struct{})
	go func() {
		s.FailoverRegion(survivor)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		unlock()
		<-done
		t.Fatalf("after op %d: FailoverRegion(%d) waited 10 s on region %d's locked owner shards", p, survivor, dead)
	}
	for i, fp := range want {
		if got := s.ReplicaFingerprint(survivor, i); got != fp {
			t.Fatalf("after op %d: region %d's replica of dead shard %d lost acknowledged writes:\n  replica %s\n  owner   %s", p, survivor, i, got, fp)
		}
	}
	unlock()
	s.RegionRecover(dead, survivor)
	for i, fp := range want {
		if got := s.ShardFingerprint(i); got != fp {
			t.Fatalf("after op %d: shard %d recovered from region %d diverged:\n  got  %s\n  want %s", p, i, survivor, got, fp)
		}
	}
	s.DrainReplication()
	requireConverged(t, s)
}

// TestCrossRegionShareRevocationFlushesGranteeRegion is the regression test
// for the satellite bugfix: when a shared volume dies at the owner, the
// grantee region's replica still holds the grant until the delete record
// ripens in the replication log — and without the eager tombstone flush the
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

	// The delete now waits in the owner shard's log for `delay` ticks,
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
	_, tomb := replica.revoked[share.ID]
	replica.RUnlockUncounted()
	if stillThere {
		t.Fatalf("delete record never applied at the replica")
	}
	if tomb {
		t.Fatalf("revocation tombstone leaked after the delete record applied")
	}
}

// TestRewindDropsLostRevocations pins the tombstone half of a rewind: a
// volume delete that a power cut took from its owner before any peer applied
// it revoked nothing, so once RecoverShard has rewound the grantee region's
// replica it must authorize the grant again, as the owner does.
func TestRewindDropsLostRevocations(t *testing.T) {
	fsys := vfs.NewMemFS()
	cfg := Config{Shards: 4, Regions: 2, ReplicationDelay: 2, EventualReads: true, FsyncPolicy: wal.FsyncAsync}
	s := openDurable(t, fsys, cfg)
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
	// Close snapshots every shard, so the delete below is all the disk can
	// lose.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openDurable(t, fsys, cfg)
	defer s.Close() //nolint:errcheck
	if _, _, err := s.DeleteVolume(owner, udf); err != nil {
		t.Fatal(err)
	}
	ownerShard := s.ShardFor(owner)
	s.CrashShard(ownerShard)
	fsys.Crash()
	if err := s.RecoverShard(ownerShard); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetVolume(owner, udf); err != nil {
		t.Fatalf("test invalid: the power cut kept the volume delete: %v", err)
	}

	replica := s.repl.state[s.RegionOfUser(grantee)].replicas[ownerShard]
	replica.RLockUncounted()
	vr := replica.volumes[udf]
	if vr != nil {
		err = checkAccessLocked(replica, vr, grantee, false)
	}
	replica.RUnlockUncounted()
	if vr == nil {
		t.Fatal("the grantee region's replica lacks the volume its owner holds")
	}
	if err != nil {
		t.Fatalf("grant the owner holds again is still refused at the grantee region's replica: %v", err)
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
