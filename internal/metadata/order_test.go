package metadata

import (
	"fmt"
	"testing"

	"u1/internal/protocol"
)

// These tests pin the iteration-order contracts the maporder lint pass
// enforces: everything DeleteVolume emits into journals, replication streams,
// or its returned removal list must be independent of Go map iteration order.

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
