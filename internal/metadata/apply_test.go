package metadata

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
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
	// model, when set, follows every op the store acknowledges.
	model *shareModel
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
	entries, _, err := fromScratch(d.s, u, vol)
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
		info, err := s.CreateUser(u)
		d.refused("CreateUser", err)
		d.model.createUser(info, err)
	case k < 8:
		info, err := s.CreateUDF(u, "~/udf-"+d.name())
		d.refused("CreateUDF", err)
		d.model.createVolume(info, err)
	case k < 40:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		parent, ok := d.node(u, vol.ID, protocol.KindDir)
		if !ok {
			return
		}
		var info protocol.NodeInfo
		var err error
		if d.rng.Intn(3) == 0 {
			info, err = s.MakeDir(u, vol.ID, parent.ID, d.name())
		} else {
			info, err = s.MakeFile(u, vol.ID, parent.ID, d.name())
		}
		d.refused("make", err)
		d.model.node(info, err)
	case k < 55:
		vol, ok := d.volume(u)
		if !ok {
			return
		}
		n, ok := d.node(u, vol.ID, protocol.KindFile)
		if !ok {
			return
		}
		// A small hash set, for dedup hits and re-puts; each hash has one size.
		name := d.name()
		h := protocol.HashBytes([]byte(name))
		info, _, _, err := s.MakeContent(u, vol.ID, n.ID, h, uint64(len(name)*1000))
		d.refused("MakeContent", err)
		d.model.node(info, err)
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
		info, err := s.Move(u, vol.ID, n.ID, to.ID, d.name())
		d.refused("Move", err)
		d.model.node(info, err)
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
		_, gen, _, err := s.Unlink(u, vol.ID, n.ID)
		d.refused("Unlink", err)
		d.model.generation(vol.ID, gen, err)
	case k < 83:
		vol, ok := d.volume(u)
		if !ok || vol.Owner != u {
			return
		}
		share, err := s.CreateShare(u, vol.ID, d.user(), "s-"+d.name(), d.rng.Intn(3) == 0)
		d.refused("CreateShare", err)
		d.model.share(share, err)
	case k < 91:
		shares, err := s.ListShares(u)
		d.refused("ListShares", err)
		for _, sh := range shares {
			if sh.SharedTo == u && !sh.Accepted {
				share, err := s.AcceptShare(u, sh.ID)
				d.refused("AcceptShare", err)
				d.model.share(share, err)
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
		d.model.deleteVolume(vol.ID, err)
	default:
		s.TickReplication()
	}
}

// deleteSharedBothWays deletes a UDF shared to a grantee on the owner's shard
// and to one on another shard: its one delete_volume record drops both
// grants, and both grantees lose the share.
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
	d.model.createVolume(vol, err)
	n, err := s.MakeFile(owner, vol.ID, 0, "f")
	if err != nil {
		d.t.Fatalf("MakeFile: %v", err)
	}
	d.model.node(n, err)
	var ids []protocol.ShareID
	for _, to := range []protocol.UserID{same, other} {
		share, err := s.CreateShare(owner, vol.ID, to, "both", false)
		if err != nil {
			d.t.Fatalf("CreateShare to %v: %v", to, err)
		}
		d.model.share(share, err)
		if share, err = s.AcceptShare(to, share.ID); err != nil {
			d.t.Fatalf("AcceptShare by %v: %v", to, err)
		}
		d.model.share(share, err)
		ids = append(ids, share.ID)
	}
	if _, _, err := s.DeleteVolume(owner, vol.ID); err != nil {
		d.t.Fatalf("DeleteVolume: %v", err)
	}
	d.model.deleteVolume(vol.ID, nil)
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
			taken, err := s.MakeFile(u, root, 0, "taken")
			if d.model.node(taken, err); err != nil {
				return nil // a directory by that name already holds it
			}
			n, err := s.MakeFile(u, root, 0, "mover")
			if d.model.node(n, err); err != nil {
				return nil
			}
			return func() error { _, err := s.Move(u, root, n.ID, 0, "taken"); return err }
		})
	case 3:
		d.probeRefusal("move into own subtree", protocol.ErrBadRequest, func() func() error {
			outer, err := s.MakeDir(u, root, 0, "outer")
			if d.model.node(outer, err); err != nil {
				return nil
			}
			inner, err := s.MakeDir(u, root, outer.ID, "inner")
			if d.model.node(inner, err); err != nil {
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
		sh.nodes.each(func(nr *row) {
			if nr.kind == protocol.KindFile && !nr.hash.IsZero() {
				nodes[nr.hash]++
			}
		})
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

// shareModel is the naive model of what ListShares and ListVolumes answer:
// one map of share rows by ID and one of every live volume, users known by
// the root volumes they were given. Each method takes an op's answer and its
// error, changes nothing for a refused op, and does nothing on a nil model.
type shareModel struct {
	users   map[protocol.UserID]bool
	volumes map[protocol.VolumeID]protocol.VolumeInfo
	shares  map[protocol.ShareID]protocol.ShareInfo
}

func newShareModel() *shareModel {
	return &shareModel{
		users:   map[protocol.UserID]bool{},
		volumes: map[protocol.VolumeID]protocol.VolumeInfo{},
		shares:  map[protocol.ShareID]protocol.ShareInfo{},
	}
}

func (m *shareModel) clone() *shareModel {
	return &shareModel{users: maps.Clone(m.users), volumes: maps.Clone(m.volumes), shares: maps.Clone(m.shares)}
}

// createUser takes CreateUser's root volume, new only for a new user.
func (m *shareModel) createUser(root protocol.VolumeInfo, err error) {
	if m != nil && err == nil && !m.users[root.Owner] {
		m.users[root.Owner] = true
		m.volumes[root.ID] = root
	}
}

func (m *shareModel) createVolume(info protocol.VolumeInfo, err error) {
	if m != nil && err == nil {
		m.volumes[info.ID] = info
	}
}

// node takes a make's, a content's or a move's answer: its volume is at
// least at the node's generation (an idempotent make answers an older node).
func (m *shareModel) node(n protocol.NodeInfo, err error) { m.generation(n.Volume, n.Generation, err) }

func (m *shareModel) generation(vol protocol.VolumeID, gen protocol.Generation, err error) {
	if m == nil || err != nil {
		return
	}
	if v, ok := m.volumes[vol]; ok && gen > v.Generation {
		v.Generation = gen
		m.volumes[vol] = v
	}
}

func (m *shareModel) share(share protocol.ShareInfo, err error) {
	if m != nil && err == nil {
		m.shares[share.ID] = share
	}
}

// deleteVolume drops the volume and every share of it.
func (m *shareModel) deleteVolume(vol protocol.VolumeID, err error) {
	if m == nil || err != nil {
		return
	}
	delete(m.volumes, vol)
	maps.DeleteFunc(m.shares, func(_ protocol.ShareID, sh protocol.ShareInfo) bool { return sh.Volume == vol })
}

// listVolumes is ListVolumes by the model: u's own volumes, then the
// volumes of the shares u accepted as shared volumes, each part by ID.
func (m *shareModel) listVolumes(u protocol.UserID) (own []protocol.VolumeInfo) {
	var shared []protocol.VolumeInfo
	for _, v := range m.volumes {
		if v.Owner == u {
			own = append(own, v)
		}
	}
	for _, sh := range m.shares {
		if sh.SharedTo == u && sh.Accepted {
			v := m.volumes[sh.Volume]
			v.Type = protocol.VolumeShared
			shared = append(shared, v)
		}
	}
	byID := func(a, b protocol.VolumeInfo) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(own, byID)
	slices.SortFunc(shared, byID)
	return append(own, shared...)
}

// listShares is ListShares by the model: every share u offered or received,
// by ID.
func (m *shareModel) listShares(u protocol.UserID) (out []protocol.ShareInfo) {
	for _, sh := range m.shares {
		if sh.SharedBy == u || sh.SharedTo == u {
			out = append(out, sh)
		}
	}
	slices.SortFunc(out, func(a, b protocol.ShareInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// mismatch returns how s's ListShares or ListVolumes answer for one of
// users differs from the model's, or "".
func (m *shareModel) mismatch(s *Store, users []protocol.UserID) string {
	for _, u := range users {
		vols, verr := s.ListVolumes(u)
		shares, serr := s.ListShares(u)
		if !m.users[u] {
			if !errors.Is(verr, protocol.ErrNotFound) || !errors.Is(serr, protocol.ErrNotFound) {
				return fmt.Sprintf("user %v, never created: ListVolumes %v, ListShares %v, want ErrNotFound", u, verr, serr)
			}
			continue
		}
		if verr != nil || serr != nil {
			return fmt.Sprintf("user %v: ListVolumes %v, ListShares %v", u, verr, serr)
		}
		if want := m.listVolumes(u); !slices.Equal(vols, want) {
			return fmt.Sprintf("user %v: ListVolumes\n  got  %+v\n  want %+v", u, vols, want)
		}
		if want := m.listShares(u); !slices.Equal(shares, want) {
			return fmt.Sprintf("user %v: ListShares\n  got  %+v\n  want %+v", u, shares, want)
		}
	}
	return ""
}

// require fails the test unless s answers every one of users as the model
// does.
func (m *shareModel) require(t *testing.T, s *Store, users []protocol.UserID, after string) {
	t.Helper()
	if diff := m.mismatch(s, users); diff != "" {
		t.Fatalf("after %s: the store and the share model disagree: %s", after, diff)
	}
}

// maxNodeID is the highest node id held by any owner shard.
func maxNodeID(s *Store) protocol.NodeID {
	var top protocol.NodeID
	for _, sh := range s.shards {
		for id := range sh.nodes.index {
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
// the replicas had applied, and more traffic. After every op, every user's
// ListShares and ListVolumes must equal the share model's: on the live
// two-region read-your-writes store, on the reopened one and on the one the
// power cut left.
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
			d := &opMix{t: t, s: s, rng: rand.New(rand.NewSource(1)), model: newShareModel()}
			var everyone []protocol.UserID
			for u := protocol.UserID(1); u <= 32; u++ {
				everyone = append(everyone, u)
				if u <= 20 {
					info, err := s.CreateUser(u)
					if err != nil {
						t.Fatal(err)
					}
					d.model.createUser(info, err)
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
				d.model.require(t, s, everyone, fmt.Sprintf("op %d", i))
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
			d.model.require(t, r, everyone, "the reopen")
			top := maxNodeID(r)
			root, err := r.CreateUser(1)
			if err != nil {
				t.Fatal(err)
			}
			// The power cut below may take this async write, or keep it.
			beforeWrite := d.model.clone()
			n, err := r.MakeFile(1, root.ID, 0, "after-reopen")
			if err != nil {
				t.Fatalf("MakeFile after reopen: %v", err)
			}
			d.model.node(n, err)
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
			if beforeWrite.mismatch(r, everyone) == "" {
				d.model = beforeWrite
			}
			d.model.require(t, r, everyone, "the power cut")
			d.s = r
			for i := 0; i < 500; i++ {
				d.step()
				requireRefsMatchNodes(t, r, fmt.Sprintf("op %d after the power cut", i))
				d.model.require(t, r, everyone, fmt.Sprintf("op %d after the power cut", i))
			}
			r.DrainReplication()
			requireConverged(t, r)
		})
	}
}
