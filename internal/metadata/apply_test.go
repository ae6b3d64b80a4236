package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// opMix drives a seeded random mix of every journaled mutation through a
// store: user and UDF creation, makes, content, moves, cascading unlinks,
// same- and cross-shard shares and their acceptance, volume deletion with
// grantees, and replication ticks. Ops the store refuses are part of the mix.
type opMix struct {
	t     *testing.T
	s     *Store
	rng   *rand.Rand
	users []protocol.UserID // created so far
	pool  []protocol.UserID // created later by the op mix
	err   error             // what the last step's last op returned
}

var mixNames = []string{"a", "b", "c", "d", "e", "f"}

func (d *opMix) user() protocol.UserID { return d.users[d.rng.Intn(len(d.users))] }

func (d *opMix) name() string { return mixNames[d.rng.Intn(len(mixNames))] }

// refused fails the test unless err is nil or one of the store's refusals.
func (d *opMix) refused(op string, err error) {
	d.t.Helper()
	if d.err = err; err == nil {
		return
	}
	for _, want := range []error{protocol.ErrNotFound, protocol.ErrExists, protocol.ErrBadRequest, protocol.ErrPermission, protocol.ErrUnavailable} {
		if errors.Is(err, want) {
			return
		}
	}
	d.t.Fatalf("%s: unexpected error %v", op, err)
}

// volume picks one of u's volumes, owned or accepted.
func (d *opMix) volume(u protocol.UserID) (protocol.VolumeInfo, bool) {
	vols, err := d.s.ListVolumes(u)
	if err != nil || len(vols) == 0 {
		return protocol.VolumeInfo{}, false
	}
	return vols[d.rng.Intn(len(vols))], true
}

// anyKind makes node pick among every node of a volume.
const anyKind protocol.NodeKind = 255

// node picks a node of vol as seen by u, of kind unless kind is anyKind.
func (d *opMix) node(u protocol.UserID, vol protocol.VolumeID, kind protocol.NodeKind) (protocol.NodeInfo, bool) {
	entries, _, err := d.s.GetFromScratch(u, vol)
	if err != nil {
		return protocol.NodeInfo{}, false
	}
	var picks []protocol.NodeInfo
	for _, e := range entries {
		if kind == anyKind || e.Node.Kind == kind {
			picks = append(picks, e.Node)
		}
	}
	if len(picks) == 0 {
		return protocol.NodeInfo{}, false
	}
	return picks[d.rng.Intn(len(picks))], true
}

func (d *opMix) step() {
	s, u := d.s, d.user()
	d.err = nil
	switch k := d.rng.Intn(100); {
	case k < 4:
		if len(d.pool) > 0 {
			u, d.pool = d.pool[0], d.pool[1:]
			d.users = append(d.users, u)
		}
		_, err := s.CreateUser(u)
		d.refused("CreateUser", err)
	case k < 8:
		_, err := s.CreateUDF(u, "~/udf-"+d.name())
		d.refused("CreateUDF", err)
	case k < 40:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		parent, ok := d.node(u, vol.ID, protocol.KindDir)
		if !ok {
			return
		}
		var err error
		if d.rng.Intn(3) == 0 {
			_, err = s.MakeDir(u, vol.ID, parent.ID, d.name())
		} else {
			_, err = s.MakeFile(u, vol.ID, parent.ID, d.name())
		}
		d.refused("make", err)
	case k < 55:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		n, ok := d.node(u, vol.ID, protocol.KindFile)
		if !ok {
			return
		}
		// A small hash set, for dedup hits; each hash has one size. A file is
		// never re-put with the hash it holds: live MakeContent takes a second
		// reference for that, which recovery (one per file node) does not
		// rebuild, so Contents() would differ for a reason outside apply.
		name := d.name()
		h := protocol.HashBytes([]byte(name))
		if n.Hash == h {
			return
		}
		_, _, _, err := s.MakeContent(u, vol.ID, n.ID, h, uint64(len(name)*1000))
		d.refused("MakeContent", err)
	case k < 67:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		n, ok1 := d.node(u, vol.ID, anyKind)
		to, ok2 := d.node(u, vol.ID, protocol.KindDir)
		if !ok1 || !ok2 {
			return
		}
		_, err := s.Move(u, vol.ID, n.ID, to.ID, d.name())
		d.refused("Move", err)
	case k < 77:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		kind := anyKind
		if d.rng.Intn(2) == 0 {
			kind = protocol.KindDir // cascades
		}
		n, ok := d.node(u, vol.ID, kind)
		if !ok {
			return
		}
		_, _, _, err := s.Unlink(u, vol.ID, n.ID)
		d.refused("Unlink", err)
	case k < 83:
		vol, ok := d.volume(u)
		if !ok || vol.Owner != u {
			return
		}
		_, err := s.CreateShare(u, vol.ID, d.user(), "s-"+d.name(), d.rng.Intn(3) == 0)
		d.refused("CreateShare", err)
	case k < 91:
		shares, err := s.ListShares(u)
		d.refused("ListShares", err)
		for _, sh := range shares {
			if sh.SharedTo == u && !sh.Accepted {
				_, err := s.AcceptShare(u, sh.ID)
				d.refused("AcceptShare", err)
				return
			}
		}
	case k < 95:
		vol, ok := d.volume(u)
		if !ok || vol.Owner != u {
			return
		}
		_, _, err := s.DeleteVolume(u, vol.ID)
		d.refused("DeleteVolume", err)
	default:
		s.TickReplication()
	}
}

// deleteSharedBothWays deletes a UDF shared to a grantee on the owner's shard
// and to one on another shard, so one delete_volume drops a same-shard grant
// in place and a cross-shard grant through its own drop_share record.
func (d *opMix) deleteSharedBothWays() {
	d.t.Helper()
	s := d.s
	var owner, same, other protocol.UserID
	for _, a := range d.users {
		for _, b := range d.users {
			switch {
			case b == a:
			case s.ShardFor(b) == s.ShardFor(a) && same == 0:
				same = b
			case s.ShardFor(b) != s.ShardFor(a) && other == 0:
				other = b
			}
		}
		if same != 0 && other != 0 {
			owner = a
			break
		}
		same, other = 0, 0
	}
	if owner == 0 {
		d.t.Fatal("no owner with grantees on its own and on another shard")
	}
	vol, err := s.CreateUDF(owner, "~/shared-both-ways")
	if err != nil {
		d.t.Fatalf("CreateUDF: %v", err)
	}
	if _, err := s.MakeFile(owner, vol.ID, 0, "f"); err != nil {
		d.t.Fatalf("MakeFile: %v", err)
	}
	var ids []protocol.ShareID
	for _, to := range []protocol.UserID{same, other} {
		share, err := s.CreateShare(owner, vol.ID, to, "both", false)
		if err != nil {
			d.t.Fatalf("CreateShare to %v: %v", to, err)
		}
		if _, err := s.AcceptShare(to, share.ID); err != nil {
			d.t.Fatalf("AcceptShare by %v: %v", to, err)
		}
		ids = append(ids, share.ID)
	}
	if _, _, err := s.DeleteVolume(owner, vol.ID); err != nil {
		d.t.Fatalf("DeleteVolume: %v", err)
	}
	for i, to := range []protocol.UserID{same, other} {
		shares, _ := s.ListShares(to)
		if slices.ContainsFunc(shares, func(sh protocol.ShareInfo) bool { return sh.ID == ids[i] }) {
			d.t.Fatalf("grantee %v still holds share %v of the deleted volume", to, ids[i])
		}
	}
}

// probeRefusal runs one op the store must refuse with want and checks that
// no shard fingerprint moved. setup may commit ops of its own first.
func (d *opMix) probeRefusal(what string, want error, setup func() func() error) {
	d.t.Helper()
	op := setup()
	if op == nil {
		return
	}
	before := fingerprints(d.s)
	if err := op(); !errors.Is(err, want) {
		d.t.Fatalf("refusal probe %s: err = %v, want %v", what, err, want)
	}
	if after := fingerprints(d.s); !slices.Equal(before, after) {
		d.t.Fatalf("refused %s changed shard state:\n  before %v\n  after  %v", what, before, after)
	}
}

// probe runs the i-th refusal probe, cycling through the five refusal kinds.
func (d *opMix) probe(i int) {
	s, u := d.s, d.user()
	// CreateUser of an existing user reads its root volume back.
	rootVol, err := s.CreateUser(u)
	if err != nil {
		d.t.Fatalf("CreateUser(%v): %v", u, err)
	}
	root := rootVol.ID
	switch i % 5 {
	case 0:
		d.probeRefusal("delete by a non-owner", protocol.ErrPermission, func() func() error {
			w := d.user()
			if w == u {
				return nil
			}
			return func() error { _, _, err := s.DeleteVolume(w, root); return err }
		})
	case 1:
		d.probeRefusal("make under a missing parent", protocol.ErrNotFound, func() func() error {
			return func() error { _, err := s.MakeFile(u, root, 1<<40, "orphan"); return err }
		})
	case 2:
		d.probeRefusal("name taken", protocol.ErrExists, func() func() error {
			if _, err := s.MakeFile(u, root, 0, "taken"); err != nil {
				return nil // a directory by that name already holds it
			}
			n, err := s.MakeFile(u, root, 0, "mover")
			if err != nil {
				return nil
			}
			return func() error { _, err := s.Move(u, root, n.ID, 0, "taken"); return err }
		})
	case 3:
		d.probeRefusal("move into own subtree", protocol.ErrBadRequest, func() func() error {
			outer, err := s.MakeDir(u, root, 0, "outer")
			if err != nil {
				return nil
			}
			inner, err := s.MakeDir(u, root, outer.ID, "inner")
			if err != nil {
				return nil
			}
			return func() error { _, err := s.Move(u, root, outer.ID, inner.ID, "loop"); return err }
		})
	case 4:
		region := s.RegionOfUser(u)
		d.probeRefusal("write in a down region", protocol.ErrUnavailable, func() func() error {
			s.RegionDown(region)
			return func() error { _, err := s.MakeFile(u, root, 0, "while-down"); return err }
		})
		before := fingerprints(s)
		s.RegionRecover(region, 1-region)
		if after := fingerprints(s); !slices.Equal(before, after) {
			d.t.Fatalf("RegionRecover(%d) diverged from the owners it restored:\n  before %v\n  after  %v", region, before, after)
		}
	}
}

// requireRefsMatchNodes fails the test unless, for every hash, the content
// registry counts exactly the live file nodes that hold it across the owner
// shards.
func requireRefsMatchNodes(t *testing.T, s *Store, after string) {
	t.Helper()
	nodes := map[protocol.Hash]uint64{}
	for _, sh := range s.shards {
		for _, nr := range sh.nodes {
			if nr.kind == protocol.KindFile && !nr.hash.IsZero() {
				nodes[nr.hash]++
			}
		}
	}
	if len(s.contents.rows) != len(nodes) {
		t.Fatalf("after %s: the content registry holds %d hashes, live file nodes %d", after, len(s.contents.rows), len(nodes))
	}
	for h, n := range nodes {
		if refs := s.contents.rows[h].refs(); refs != n {
			t.Fatalf("after %s: hash %x has %d references, and %d live file nodes hold it", after, h[:4], refs, n)
		}
	}
}

// maxNodeID is the highest node id held by any owner shard.
func maxNodeID(s *Store) protocol.NodeID {
	var top protocol.NodeID
	for _, sh := range s.shards {
		for id := range sh.nodes {
			top = max(top, id)
		}
	}
	return top
}

// TestLiveReplayReplicaAgree is the differential oracle of the one apply
// path: one seeded op stream, and the state live traffic built must equal
// what replica application, crash recovery and a cold reopen rebuild from the
// records — at every delta-log setting, with snapshots and journal truncation
// happening mid-run. The reopened store's replicas must equal its owners, and
// so must they after a power cut that sets the owners back behind records
// the replicas had applied, and more traffic.
func TestLiveReplayReplicaAgree(t *testing.T) {
	const ops = 2000
	for _, limit := range []int{0, 4, -1} {
		t.Run(fmt.Sprintf("deltalog=%d", limit), func(t *testing.T) {
			fsys := vfs.NewMemFS()
			cfg := Config{
				Shards: 4, Regions: 2, ReplicationDelay: 1, DeltaLogLimit: limit,
				SnapshotEvery: 64, FsyncPolicy: wal.FsyncAsync,
			}
			s := openDurable(t, fsys, cfg)
			d := &opMix{t: t, s: s, rng: rand.New(rand.NewSource(1))}
			for u := protocol.UserID(1); u <= 32; u++ {
				if u <= 20 {
					if _, err := s.CreateUser(u); err != nil {
						t.Fatal(err)
					}
					d.users = append(d.users, u)
				} else {
					d.pool = append(d.pool, u)
				}
			}
			for i := 0; i < ops; i++ {
				d.step()
				if i%20 == 19 {
					d.probe(i / 20)
				}
				if i == ops/2 {
					d.deleteSharedBothWays()
				}
				requireRefsMatchNodes(t, s, fmt.Sprintf("op %d", i))
			}

			s.DrainReplication()
			requireConverged(t, s)

			live, contents := fingerprints(s), *s.Contents()
			for i := 0; i < s.NumShards(); i++ {
				s.CrashShard(i)
				if err := s.RecoverShard(i); err != nil {
					t.Fatalf("RecoverShard(%d): %v", i, err)
				}
			}
			if got := fingerprints(s); !slices.Equal(got, live) {
				t.Fatalf("crash recovery diverged from live:\n  live      %v\n  recovered %v", live, got)
			}
			if got := *s.Contents(); got != contents {
				t.Fatalf("content registry diverged across recovery: %+v != %+v", got, contents)
			}

			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r := openDurable(t, fsys, cfg)
			defer r.Close() //nolint:errcheck
			if got := fingerprints(r); !slices.Equal(got, live) {
				t.Fatalf("reopen diverged from live:\n  live     %v\n  reopened %v", live, got)
			}
			if got := *r.Contents(); got != contents {
				t.Fatalf("content registry diverged across reopen: %+v != %+v", got, contents)
			}
			top := maxNodeID(r)
			root, err := r.CreateUser(1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := r.MakeFile(1, root.ID, 0, "after-reopen")
			if err != nil {
				t.Fatalf("MakeFile after reopen: %v", err)
			}
			if n.ID <= top {
				t.Fatalf("allocator reissued node id %v (highest recovered %v)", n.ID, top)
			}
			r.DrainReplication()
			requireConverged(t, r)

			for i := 0; i < r.NumShards(); i++ {
				r.CrashShard(i)
			}
			fsys.Crash()
			for i := 0; i < r.NumShards(); i++ {
				if err := r.RecoverShard(i); err != nil {
					t.Fatalf("RecoverShard(%d) after the power cut: %v", i, err)
				}
			}
			d.s = r
			for i := 0; i < 500; i++ {
				d.step()
				requireRefsMatchNodes(t, r, fmt.Sprintf("op %d after the power cut", i))
			}
			r.DrainReplication()
			requireConverged(t, r)
		})
	}
}
