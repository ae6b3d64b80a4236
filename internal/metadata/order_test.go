package metadata

import (
	"fmt"
	"sort"
	"testing"

	"u1/internal/protocol"
)

// These tests pin the iteration-order contracts the maporder lint pass
// enforces: everything DeleteVolume emits into journals, replication streams,
// or its returned removal list must be independent of Go map iteration order.

// TestDeleteVolumeJournalsDropSharesInUserOrder pins the grantee-cleanup
// order: DeleteVolume walks the volume's grantees in ascending user id, so
// each grantee shard's journal (and therefore the replication stream, which
// publishes journal records in apply order) sees drop_share records in a
// canonical order. Before the sort, the walk ranged over the grants map and
// the record order varied run to run.
func TestDeleteVolumeJournalsDropSharesInUserOrder(t *testing.T) {
	s := New(Config{Shards: 4, Regions: 2})
	const owner = protocol.UserID(1)
	mustUser(t, s, owner)
	udf, err := s.CreateUDF(owner, "~/Shared")
	if err != nil {
		t.Fatal(err)
	}

	// Pick grantees that live on other shards: same-shard grantees are
	// cleaned inline under the owner's lock and never journal separately.
	ownerShard := s.ShardFor(owner)
	var grantees []protocol.UserID
	for id := protocol.UserID(2); len(grantees) < 12 && id < 10_000; id++ {
		if s.ShardFor(id) == ownerShard {
			continue
		}
		grantees = append(grantees, id)
		mustUser(t, s, id)
		share, err := s.CreateShare(owner, udf.ID, id, fmt.Sprintf("s%d", id), false)
		if err != nil {
			t.Fatalf("CreateShare(%d): %v", id, err)
		}
		if _, err := s.AcceptShare(id, share.ID); err != nil {
			t.Fatalf("AcceptShare(%d): %v", id, err)
		}
	}

	// Tick the setup records out of the replication logs, so only the
	// delete's records remain, in the logs' tails.
	s.TickReplication()

	if _, _, err := s.DeleteVolume(owner, udf.ID); err != nil {
		t.Fatal(err)
	}

	// Per-shard journal order is the contract: within each grantee shard the
	// drop_share records must appear in ascending grantee id. With 12
	// grantees over 3 shards an unsorted map walk fails this with high
	// probability on every run.
	total := 0
	for shardID, l := range s.repl.logs {
		var seen []protocol.UserID
		for _, rec := range decodeRecords(t, l.tail.Bytes(), l.n) {
			if rec.Kind == recDropShare {
				seen = append(seen, rec.Share.SharedTo)
			}
		}
		total += len(seen)
		if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
			t.Errorf("shard %d journaled drop_share records out of user order: %v", shardID, seen)
		}
	}
	if total != len(grantees) {
		t.Errorf("journaled %d drop_share records, want %d", total, len(grantees))
	}
}

// TestDeleteVolumeRemovalOrderDeterministic pins the cascade's node order:
// two identically built stores must report the removed nodes of a deleted
// volume in the identical sequence, because that sequence lands in the
// journal (recDeleteVolume carries it) and in client notifications. The
// breadth-first walk sorts each node's children, so the order cannot inherit
// map iteration randomness.
func TestDeleteVolumeRemovalOrderDeterministic(t *testing.T) {
	build := func() (*Store, protocol.VolumeID) {
		s := New(Config{Shards: 4})
		mustUser(t, s, 1)
		udf, err := s.CreateUDF(1, "~/Tree")
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 4; d++ {
			dir, err := s.MakeDir(1, udf.ID, 0, fmt.Sprintf("d%d", d))
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < 3; f++ {
				if _, err := s.MakeFile(1, udf.ID, dir.ID, fmt.Sprintf("f%d", f)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, udf.ID
	}

	s1, v1 := build()
	s2, v2 := build()
	removed1, _, err := s1.DeleteVolume(1, v1)
	if err != nil {
		t.Fatal(err)
	}
	removed2, _, err := s2.DeleteVolume(1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed1) != len(removed2) {
		t.Fatalf("removal counts differ: %d vs %d", len(removed1), len(removed2))
	}
	for i := range removed1 {
		if removed1[i].ID != removed2[i].ID {
			t.Fatalf("removal order diverged at index %d: %v vs %v\n  run 1: %v\n  run 2: %v",
				i, removed1[i].ID, removed2[i].ID, nodeIDs(removed1), nodeIDs(removed2))
		}
	}
}

func nodeIDs(nodes []protocol.NodeInfo) []protocol.NodeID {
	out := make([]protocol.NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

// TestUnlinkRemovalOrderDeterministic does the same for the subtree unlink
// path, whose depth-first traversal now pushes children in sorted order.
func TestUnlinkRemovalOrderDeterministic(t *testing.T) {
	build := func() (*Store, protocol.VolumeID, protocol.NodeID) {
		s := New(Config{Shards: 4})
		root := mustUser(t, s, 1)
		top, err := s.MakeDir(1, root.ID, 0, "top")
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 4; d++ {
			dir, err := s.MakeDir(1, root.ID, top.ID, fmt.Sprintf("d%d", d))
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < 3; f++ {
				if _, err := s.MakeFile(1, root.ID, dir.ID, fmt.Sprintf("f%d", f)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, root.ID, top.ID
	}

	s1, v1, n1 := build()
	s2, v2, n2 := build()
	removed1, _, _, err := s1.Unlink(1, v1, n1)
	if err != nil {
		t.Fatal(err)
	}
	removed2, _, _, err := s2.Unlink(1, v2, n2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed1) != len(removed2) {
		t.Fatalf("removal counts differ: %d vs %d", len(removed1), len(removed2))
	}
	for i := range removed1 {
		if removed1[i].ID != removed2[i].ID {
			t.Fatalf("unlink order diverged at index %d:\n  run 1: %v\n  run 2: %v",
				i, nodeIDs(removed1), nodeIDs(removed2))
		}
	}
}
