package metadata

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// refusalGolden pins, for every committing op and every volume read, the
// status each cause and each pair of causes gets, and the shard locks the
// op takes on the way: one line per row, "op causes status reads writes".
const refusalGolden = "testdata/refusals.golden"

// refusalFixture is the store each row runs against: a durable two-region
// store on a disk that can fail a call, whose owner (region 0) shares a UDF
// read-only with an accepted grantee and offers it to a pending one, both in
// region 1 with the stranger and the share target.
type refusalFixture struct {
	s    *Store
	fsys *faultFS
	owner, grantee, pending, stranger, target,
	newUser, unknownUser protocol.UserID
	root, vol           protocol.VolumeID
	rootNode, dir, file protocol.NodeID
	accepted, offered   protocol.ShareID
}

func newRefusalFixture(t *testing.T) *refusalFixture {
	t.Helper()
	f := &refusalFixture{fsys: &faultFS{MemFS: vfs.NewMemFS()}}
	f.s = openDurable(t, f.fsys, Config{Shards: 4, Regions: 2, FsyncPolicy: wal.FsyncPerOp})
	s := f.s
	var region1 []protocol.UserID
	for u := protocol.UserID(1); len(region1) < 4 || f.owner == 0; u++ {
		if s.RegionOfUser(u) == 0 && f.owner == 0 {
			f.owner = u
		} else if s.RegionOfUser(u) == 1 && len(region1) < 4 {
			region1 = append(region1, u)
		}
	}
	f.grantee, f.pending, f.stranger, f.target = region1[0], region1[1], region1[2], region1[3]
	for u := protocol.UserID(100); f.unknownUser == 0; u++ {
		if s.ShardFor(u) != s.ShardFor(f.owner) {
			continue
		}
		if f.newUser == 0 {
			f.newUser = u
		} else {
			f.unknownUser = u
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
	}
	root, err := s.CreateUser(f.owner)
	must(err)
	f.root = root.ID
	for _, u := range region1 {
		_, err := s.CreateUser(u)
		must(err)
	}
	udf, err := s.CreateUDF(f.owner, "~/shared")
	must(err)
	f.vol = udf.ID
	sh := s.shardOf(f.owner)
	sh.RLockUncounted()
	f.rootNode = sh.volumes[f.vol].root
	sh.RUnlockUncounted()
	dir, err := s.MakeDir(f.owner, f.vol, 0, "docs")
	must(err)
	f.dir = dir.ID
	file, err := s.MakeFile(f.owner, f.vol, dir.ID, "a.txt")
	must(err)
	f.file = file.ID
	_, _, _, err = s.MakeContent(f.owner, f.vol, file.ID, protocol.Hash{7}, 64)
	must(err)
	share, err := s.CreateShare(f.owner, f.vol, f.grantee, "ro", true)
	must(err)
	f.accepted = share.ID
	_, err = s.AcceptShare(f.grantee, share.ID)
	must(err)
	share, err = s.CreateShare(f.owner, f.vol, f.pending, "offer", false)
	must(err)
	f.offered = share.ID
	s.DrainReplication()
	return f
}

// refusalArgs are one op call's arguments; a cause overrides one of them.
type refusalArgs struct {
	user  protocol.UserID
	vol   protocol.VolumeID
	node  protocol.NodeID // the op's target node, or makeNode's parent
	name  string
	share protocol.ShareID
	to    protocol.UserID // CreateShare's grantee
	hash  protocol.Hash
}

// unknownID names no volume, node, share or user of the fixture.
const unknownID = 9999

// argCauses change the op's arguments, by default as below; an op may set
// its own (badArg and exists are always its own).
var argCauses = map[string]func(f *refusalFixture, a *refusalArgs){
	"unknownVol":  func(f *refusalFixture, a *refusalArgs) { a.vol = unknownID },
	"unknownNode": func(f *refusalFixture, a *refusalArgs) { a.node = unknownID },
	"noGrant":     func(f *refusalFixture, a *refusalArgs) { a.user = f.stranger },
	"readOnly":    func(f *refusalFixture, a *refusalArgs) { a.user = f.grantee },
}

// refusalOp is one op under test: its arguments with no cause, the causes
// that apply to it, its own argument causes, and the call. The store-state
// causes are fenced, regionDown and closed.
type refusalOp struct {
	name   string
	args   func(f *refusalFixture) refusalArgs
	causes []string
	set    map[string]func(f *refusalFixture, a *refusalArgs)
	call   func(s *Store, a refusalArgs) error
}

// cause applies argument cause c to a: op's own, else the default.
func (op refusalOp) cause(f *refusalFixture, c string, a *refusalArgs) {
	if set, ok := op.set[c]; ok {
		set(f, a)
	} else if set, ok := argCauses[c]; ok {
		set(f, a)
	}
}

func ownerArgs(f *refusalFixture) refusalArgs {
	return refusalArgs{user: f.owner, vol: f.vol, node: f.file, name: "new.txt", hash: protocol.Hash{9}}
}

var refusalOps = []refusalOp{
	{
		name:   "CreateUser",
		args:   func(f *refusalFixture) refusalArgs { return refusalArgs{user: f.newUser} },
		causes: []string{"exists", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"exists": func(f *refusalFixture, a *refusalArgs) { a.user = f.owner },
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.CreateUser(a.user); return err },
	},
	{
		name:   "CreateUDF",
		args:   func(f *refusalFixture) refusalArgs { return refusalArgs{user: f.owner, name: "~/new"} },
		causes: []string{"badArg", "unknownNode", "exists", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg":      func(f *refusalFixture, a *refusalArgs) { a.name = "" },
			"unknownNode": func(f *refusalFixture, a *refusalArgs) { a.user = f.unknownUser },
			"exists":      func(f *refusalFixture, a *refusalArgs) { a.name = "~/shared" },
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.CreateUDF(a.user, a.name); return err },
	},
	{
		name:   "MakeFile",
		args:   parentArgs,
		causes: []string{"badArg", "unknownVol", "unknownNode", "exists", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg": func(f *refusalFixture, a *refusalArgs) { a.name = "" },
			"exists": func(f *refusalFixture, a *refusalArgs) { a.name = "a.txt" }, // an idempotent re-make
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.MakeFile(a.user, a.vol, a.node, a.name); return err },
	},
	{
		name:   "MakeDir",
		args:   parentArgs,
		causes: []string{"unknownNode", "exists", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"exists": func(f *refusalFixture, a *refusalArgs) { a.name = "a.txt" }, // a file by that name
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.MakeDir(a.user, a.vol, a.node, a.name); return err },
	},
	{
		name:   "MakeContent",
		args:   ownerArgs,
		causes: []string{"badArg", "unknownVol", "unknownNode", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg": func(f *refusalFixture, a *refusalArgs) { a.hash = protocol.Hash{} },
		},
		call: func(s *Store, a refusalArgs) error {
			_, _, _, err := s.MakeContent(a.user, a.vol, a.node, a.hash, 128)
			return err
		},
	},
	{
		name:   "Unlink",
		args:   ownerArgs,
		causes: []string{"badArg", "unknownVol", "unknownNode", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg": func(f *refusalFixture, a *refusalArgs) { a.node = f.rootNode }, // the volume root
		},
		call: func(s *Store, a refusalArgs) error { _, _, _, err := s.Unlink(a.user, a.vol, a.node); return err },
	},
	{
		name:   "Move",
		args:   ownerArgs,
		causes: []string{"badArg", "unknownVol", "unknownNode", "exists", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg": func(f *refusalFixture, a *refusalArgs) { a.name = "" },
			"exists": func(f *refusalFixture, a *refusalArgs) { a.name = "docs" },
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.Move(a.user, a.vol, a.node, 0, a.name); return err },
	},
	{
		name:   "DeleteVolume",
		args:   ownerArgs,
		causes: []string{"badArg", "unknownVol", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg": func(f *refusalFixture, a *refusalArgs) { a.vol = f.root },
		},
		call: func(s *Store, a refusalArgs) error { _, _, err := s.DeleteVolume(a.user, a.vol); return err },
	},
	{
		name: "CreateShare",
		args: func(f *refusalFixture) refusalArgs {
			a := ownerArgs(f)
			a.to = f.target
			return a
		},
		causes: []string{"badArg", "unknownVol", "unknownNode", "exists", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"badArg":      func(f *refusalFixture, a *refusalArgs) { a.to = f.owner }, // sharing with oneself
			"unknownNode": func(f *refusalFixture, a *refusalArgs) { a.to = unknownID },
			"exists":      func(f *refusalFixture, a *refusalArgs) { a.to = f.grantee },
		},
		call: func(s *Store, a refusalArgs) error {
			_, err := s.CreateShare(a.user, a.vol, a.to, "share", false)
			return err
		},
	},
	{
		name:   "AcceptShare",
		args:   func(f *refusalFixture) refusalArgs { return refusalArgs{user: f.pending, share: f.offered} },
		causes: []string{"unknownNode", "exists", "noGrant", "fenced", "regionDown", "closed"},
		set: map[string]func(*refusalFixture, *refusalArgs){
			"unknownNode": func(f *refusalFixture, a *refusalArgs) { a.share = unknownID },
			"exists":      func(f *refusalFixture, a *refusalArgs) { a.user, a.share = f.grantee, f.accepted },
		},
		call: func(s *Store, a refusalArgs) error { _, err := s.AcceptShare(a.user, a.share); return err },
	},
	{
		name:   "GetVolume",
		args:   ownerArgs,
		causes: []string{"unknownVol", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		call:   func(s *Store, a refusalArgs) error { _, err := s.GetVolume(a.user, a.vol); return err },
	},
	{
		name:   "GetNode",
		args:   ownerArgs,
		causes: []string{"unknownVol", "unknownNode", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		call:   func(s *Store, a refusalArgs) error { _, err := s.GetNode(a.user, a.vol, a.node); return err },
	},
	{
		name:   "GetDelta",
		args:   ownerArgs,
		causes: []string{"unknownVol", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		call:   func(s *Store, a refusalArgs) error { _, _, err := getDelta(s, a.user, a.vol, 0); return err },
	},
	{
		name:   "GetFromScratch",
		args:   ownerArgs,
		causes: []string{"unknownVol", "noGrant", "readOnly", "fenced", "regionDown", "closed"},
		call:   func(s *Store, a refusalArgs) error { _, _, err := fromScratch(s, a.user, a.vol); return err },
	},
}

// parentArgs are makeNode's: a new name under the shared volume's directory.
func parentArgs(f *refusalFixture) refusalArgs {
	a := ownerArgs(f)
	a.node = f.dir
	return a
}

// statusOf names err's class; an error wrapping no protocol sentinel is
// "internal", never mistaken for a refusal.
func statusOf(err error) string {
	st := protocol.StatusOf(err)
	if st == protocol.StatusUnavailable && !errors.Is(err, protocol.ErrUnavailable) {
		return "internal"
	}
	return strings.ReplaceAll(st.String(), " ", "_")
}

// refusalRow runs op on a fresh fixture under causes and returns its line.
func refusalRow(t *testing.T, op refusalOp, causes []string) string {
	t.Helper()
	f := newRefusalFixture(t)
	s := f.s
	a := op.args(f)
	state := map[string]bool{}
	for _, c := range causes {
		state[c] = true
		op.cause(f, c, &a)
	}
	// Store state in the one order that leaves each cause standing: a fence
	// needs a write the region guard and a closed store would refuse.
	if state["fenced"] {
		f.fsys.at = f.fsys.calls + 1
		if _, err := s.MakeFile(f.owner, f.root, 0, "fence"); !errors.Is(err, protocol.ErrUnavailable) {
			t.Fatalf("fencing the owner's shard: %v", err)
		}
	}
	if state["regionDown"] {
		s.RegionDown(s.RegionOfUser(f.owner))
	}
	if state["closed"] {
		s.Close()
	}
	r0, w0 := sum(s.ShardLoads())
	err := op.call(s, a)
	r1, w1 := sum(s.ShardLoads())
	label := strings.Join(causes, "+")
	if label == "" {
		label = "-"
	}
	return fmt.Sprintf("%-15s %-24s %-18s r%d w%d", op.name, label, statusOf(err), r1-r0, w1-w0)
}

// overlap reports whether causes c and d change one argument of op, so
// that a row holding both would show only one.
func (op refusalOp) overlap(f *refusalFixture, c, d string) bool {
	base := op.args(f)
	ac, ad := base, base
	op.cause(f, c, &ac)
	op.cause(f, d, &ad)
	return (ac.user != base.user && ad.user != base.user) ||
		(ac.vol != base.vol && ad.vol != base.vol) ||
		(ac.node != base.node && ad.node != base.node) ||
		(ac.name != base.name && ad.name != base.name) ||
		(ac.share != base.share && ad.share != base.share) ||
		(ac.to != base.to && ad.to != base.to) ||
		(ac.hash != base.hash && ad.hash != base.hash)
}

func sum(reads, writes []uint64) (r, w uint64) {
	for i := range reads {
		r, w = r+reads[i], w+writes[i]
	}
	return r, w
}

// refusalTable runs every op with no cause, each cause alone, and each pair
// of causes on different arguments.
func refusalTable(t *testing.T) string {
	var b strings.Builder
	f0 := newRefusalFixture(t)
	for _, op := range refusalOps {
		rows := [][]string{nil}
		for i, c := range op.causes {
			rows = append(rows, []string{c})
			for _, d := range op.causes[i+1:] {
				if !op.overlap(f0, c, d) {
					rows = append(rows, []string{c, d})
				}
			}
		}
		for _, causes := range rows {
			fmt.Fprintln(&b, refusalRow(t, op, causes))
		}
	}
	return b.String()
}

// TestRefusalPrecedence is the oracle of the write and read paths' shape:
// whichever way an op reaches its volume, each cause and each pair of causes
// gets the status, and takes the shard locks, the golden records — so the
// order of resolution, region guard, lock, access check, validation and
// commit is pinned, op by op.
func TestRefusalPrecedence(t *testing.T) {
	want, err := os.ReadFile(refusalGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	got := refusalTable(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("row %d:\n  got  %s\n  want %s", i+1, g, w)
		}
	}
}
