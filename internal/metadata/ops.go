package metadata

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"u1/internal/protocol"
)

// The refusals whose message names no argument, built once.
var (
	errEmptyUDFPath     = fmt.Errorf("%w: empty UDF path", protocol.ErrBadRequest)
	errDeleteRootVolume = fmt.Errorf("%w: cannot delete the root volume", protocol.ErrBadRequest)
	errEmptyNodeName    = fmt.Errorf("%w: empty node name", protocol.ErrBadRequest)
	errParentNode       = fmt.Errorf("%w: parent node", protocol.ErrNotFound)
	errParentIsFile     = fmt.Errorf("%w: parent is a file", protocol.ErrBadRequest)
	errZeroHash         = fmt.Errorf("%w: zero content hash", protocol.ErrBadRequest)
	errContentOnDir     = fmt.Errorf("%w: content on a directory", protocol.ErrBadRequest)
	errUnlinkRoot       = fmt.Errorf("%w: cannot unlink the volume root", protocol.ErrBadRequest)
	errEmptyTargetName  = fmt.Errorf("%w: empty target name", protocol.ErrBadRequest)
	errMoveRoot         = fmt.Errorf("%w: cannot move the volume root", protocol.ErrBadRequest)
	errTargetDir        = fmt.Errorf("%w: target directory", protocol.ErrNotFound)
	errMoveIntoSubtree  = fmt.Errorf("%w: move into own subtree", protocol.ErrBadRequest)
	errShareWithSelf    = fmt.Errorf("%w: sharing with oneself", protocol.ErrBadRequest)
	errGrantee          = fmt.Errorf("%w: grantee", protocol.ErrNotFound)
	errProbeWithoutHash = fmt.Errorf("%w: dedup probe without a content hash", protocol.ErrBadRequest)
)

// mutate is the one write path into a volume, in the order every volume op
// refuses: it resolves vol's owner, refuses anyone but the owner when
// op.ownerOnly, refuses the op while the owner's region is down, runs
// op.prepare, then, through write, locks the owner's shard, looks the volume
// up, checks user's write access and runs op.build, which validates the op
// and returns its one record. It returns the hashes the commit freed.
func (s *Store) mutate(user protocol.UserID, vol protocol.VolumeID, op volumeWrite) ([]protocol.Hash, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, err
	}
	if op.ownerOnly && owner != user {
		return nil, protocol.ErrPermission
	}
	sh, err := s.writeShard(owner)
	if err != nil {
		return nil, err
	}
	if op.prepare != nil {
		if err := op.prepare(); err != nil {
			return nil, err
		}
	}
	return s.write(sh, func(sh *shard) (journalRecord, error) {
		vr, ok := sh.volumes[vol]
		if !ok {
			return journalRecord{}, protocol.ErrNotFound
		}
		if err := checkAccessLocked(sh, vr, user, true); err != nil {
			return journalRecord{}, err
		}
		return op.build(sh, vr)
	})
}

// volumeWrite is one volume op as mutate runs it: build alone is required.
type volumeWrite struct {
	ownerOnly bool         // only the volume's owner may run it
	prepare   func() error // after the region guard, before the lock
	build     func(sh *shard, vr *volumeRow) (journalRecord, error)
}

// view is the one read path into a volume: it resolves vol's owner, picks
// the shard user reads it from (readShardFor), read-locks it, looks the
// volume up, checks user's read access, and runs read under the lock.
func (s *Store) view(user protocol.UserID, vol protocol.VolumeID, read func(sh *shard, vr *volumeRow) error) error {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return err
	}
	sh := s.readShardFor(user, owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, false); err != nil {
		return err
	}
	return read(sh, vr)
}

// writeShard returns the shard holding owner's rows, or the refusal of every
// write to them while owner's region is down.
func (s *Store) writeShard(owner protocol.UserID) (*shard, error) {
	if err := s.writeGuard(owner); err != nil {
		return nil, err
	}
	return s.shardOf(owner), nil
}

// ownerOf resolves the owner of a volume through the volume directory.
func (s *Store) ownerOf(vol protocol.VolumeID) (protocol.UserID, error) {
	owner, ok := s.volumeDir.load(vol)
	if !ok {
		return 0, protocol.ErrNotFound
	}
	return owner, nil
}

// checkAccessLocked verifies that user may operate on vol (owned or granted
// through an accepted share; write access requires a non-read-only grant).
// The owner shard must already be locked.
func checkAccessLocked(sh *shard, vr *volumeRow, user protocol.UserID, write bool) error {
	if vr.info.Owner == user {
		return nil
	}
	shareID, ok := vr.grants[user]
	if !ok {
		return protocol.ErrPermission
	}
	// On replica shards, a grant revoked at the owner may not have ripened in
	// this region yet; the tombstone set revokes it immediately.
	if _, gone := sh.revoked[shareID]; gone {
		sh.revokedHits.Inc()
		return protocol.ErrPermission
	}
	share, ok := sh.shares[shareID]
	if !ok || !share.Accepted {
		return protocol.ErrPermission
	}
	if write && share.ReadOnly {
		return protocol.ErrPermission
	}
	return nil
}

// CreateUser provisions an account: the user row, the root volume (id
// reported to clients as their volume 0 equivalent) and its root directory.
// Creating an existing user is idempotent and returns the existing root
// volume, so client re-installs do not error.
func (s *Store) CreateUser(user protocol.UserID) (protocol.VolumeInfo, error) {
	// Every login ensures its user, so an existing user is answered under the
	// read lock: a login waits for no writer, counts as no write, and keeps
	// working while the user's home region is down, fenced or closed.
	sh := s.shardOf(user)
	lockedAt := sh.RLock()
	if u, ok := sh.users[user]; ok {
		info := sh.volumes[u.root].info
		sh.RUnlock(lockedAt)
		return info, nil
	}
	sh.RUnlock(lockedAt)
	var info protocol.VolumeInfo
	_, err := s.write(sh, func(sh *shard) (journalRecord, error) {
		if u, ok := sh.users[user]; ok {
			// Created since the probe: answered as above, still a pure read.
			info = sh.volumes[u.root].info
			return journalRecord{}, nil
		}
		if err := s.writeGuard(user); err != nil {
			return journalRecord{}, err
		}
		rec := s.newVolume(recCreateUser, user, protocol.VolumeRoot, "~/Ubuntu One")
		info = rec.Volume
		return rec, nil
	})
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	return info, nil
}

// newVolume allocates a volume and then its root directory and returns the
// record that creates them: a user's root volume (recCreateUser, which also
// creates the user row) or a UDF.
func (s *Store) newVolume(kind recKind, owner protocol.UserID, typ protocol.VolumeType, path string) journalRecord {
	info := protocol.VolumeInfo{ID: s.allocVolume(), Type: typ, Path: path, Owner: owner}
	return journalRecord{Kind: kind, User: owner, Volume: info, Root: s.allocNode()}
}

// ListVolumes lists all volumes of a user: root, UDFs and accepted shared
// volumes (dal.list_volumes; performed at session start, Table 2).
func (s *Store) ListVolumes(user protocol.UserID) ([]protocol.VolumeInfo, error) {
	refs, _ := s.incoming.load(user)
	sh := s.shardOf(user)
	lockedAt := sh.RLock()
	u, ok := sh.users[user]
	if !ok {
		sh.RUnlock(lockedAt)
		return nil, protocol.ErrNotFound
	}
	out := make([]protocol.VolumeInfo, 0, len(u.volumes)+len(refs))
	for _, volID := range u.volumes {
		out = append(out, sh.volumes[volID].info)
	}
	sh.RUnlock(lockedAt)
	byID := func(a, b protocol.VolumeInfo) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(out, byID)
	// An accepted incoming share, and its volume, live on the owner's shard.
	owned := len(out)
	for _, ref := range refs {
		osh := s.readShardFor(user, ref.owner)
		oLockedAt := osh.RLock()
		if share, ok := osh.shares[ref.id]; ok && share.Accepted {
			if vr, ok := osh.volumes[share.Volume]; ok {
				info := vr.info
				info.Type = protocol.VolumeShared
				out = append(out, info)
			}
		}
		osh.RUnlock(oLockedAt)
	}
	slices.SortFunc(out[owned:], byID)
	return out, nil
}

// ListShares lists sharing grants involving the user, both received and
// offered (dal.list_shares, Table 2): the grants of the user's volumes, and
// each incoming share read from its owner's shard.
func (s *Store) ListShares(user protocol.UserID) ([]protocol.ShareInfo, error) {
	refs, _ := s.incoming.load(user)
	sh := s.shardOf(user)
	lockedAt := sh.RLock()
	u, ok := sh.users[user]
	if !ok {
		sh.RUnlock(lockedAt)
		return nil, protocol.ErrNotFound
	}
	out := make([]protocol.ShareInfo, 0, len(refs))
	for _, volID := range u.volumes {
		for _, id := range sh.volumes[volID].grants {
			out = append(out, *sh.shares[id])
		}
	}
	sh.RUnlock(lockedAt)
	for _, ref := range refs {
		osh := s.readShardFor(user, ref.owner)
		oLockedAt := osh.RLock()
		if share, ok := osh.shares[ref.id]; ok {
			out = append(out, *share)
		}
		osh.RUnlock(oLockedAt)
	}
	slices.SortFunc(out, func(a, b protocol.ShareInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out, nil
}

// CreateUDF creates a user-defined volume (dal.create_udf).
func (s *Store) CreateUDF(user protocol.UserID, path string) (protocol.VolumeInfo, error) {
	if path == "" {
		return protocol.VolumeInfo{}, errEmptyUDFPath
	}
	sh, err := s.writeShard(user)
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	var rec journalRecord
	_, err = s.write(sh, func(sh *shard) (journalRecord, error) {
		u, ok := sh.users[user]
		if !ok {
			return journalRecord{}, protocol.ErrNotFound
		}
		for _, volID := range u.volumes {
			if sh.volumes[volID].info.Path == path {
				return journalRecord{}, fmt.Errorf("%w: UDF %q", protocol.ErrExists, path)
			}
		}
		rec = s.newVolume(recCreateUDF, user, protocol.VolumeUDF, path)
		return rec, nil
	})
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	return rec.Volume, nil
}

// GetVolume returns a volume's metadata (dal.get_volume_id).
func (s *Store) GetVolume(user protocol.UserID, vol protocol.VolumeID) (info protocol.VolumeInfo, err error) {
	err = s.view(user, vol, func(_ *shard, vr *volumeRow) error {
		info = vr.info
		return nil
	})
	return info, err
}

// DeleteVolume removes a volume and every node it contains — the cascade RPC
// the paper singles out as the slowest class (dal.delete_volume, Fig. 13).
// It returns the nodes removed so the caller can release blobs and notify
// clients, and the hashes whose last reference went away.
func (s *Store) DeleteVolume(user protocol.UserID, vol protocol.VolumeID) (removed []protocol.NodeInfo, freed []protocol.Hash, err error) {
	var grants map[protocol.UserID]protocol.ShareID
	freed, err = s.mutate(user, vol, volumeWrite{
		ownerOnly: true,
		build: func(sh *shard, vr *volumeRow) (journalRecord, error) {
			if vr.info.Type == protocol.VolumeRoot {
				return journalRecord{}, errDeleteRootVolume
			}
			// Read what the record is about to remove: the nodes go back to
			// the caller, and the grants are revoked in the peer regions.
			for _, nodeID := range volumeNodeIDs(sh, vr) {
				nr, _ := sh.nodes.get(nodeID)
				removed = append(removed, sh.nodes.view(nr))
			}
			ownNames(removed)
			grants = maps.Clone(vr.grants)
			return journalRecord{Kind: recDeleteVolume, User: user, VolID: vol}, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}

	// Eagerly tombstone every revoked grant in the peer regions: a grantee
	// reading through its region's replica must lose access now, not when the
	// delete record ripens in the replication log (and a create_share not yet
	// applied there must not resurrect the grant in between).
	s.revokeCrossRegion(s.ShardFor(user), grants)
	return removed, freed, nil
}

// makeNode implements MakeFile and MakeDir (dal.make_file / dal.make_dir).
// Creating a node that already exists under the same parent and kind is
// idempotent and returns the existing node, committing nothing: clients
// re-send Make before uploads (Table 2: "normally precedes a file upload").
func (s *Store) makeNode(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string, kind protocol.NodeKind) (protocol.NodeInfo, error) {
	if name == "" {
		return protocol.NodeInfo{}, errEmptyNodeName
	}
	var info protocol.NodeInfo
	_, err := s.mutate(user, vol, volumeWrite{build: func(sh *shard, vr *volumeRow) (journalRecord, error) {
		if parent == 0 {
			parent = vr.root
		}
		pr, ok := sh.nodes.get(parent)
		if !ok || pr.vol != vol {
			return journalRecord{}, errParentNode
		}
		if pr.kind != protocol.KindDir {
			return journalRecord{}, errParentIsFile
		}
		if existing, ok := sh.nodes.child(parent, name); ok {
			if existing.kind == kind {
				// The request's own name, equal to the stored one.
				info = sh.nodes.view(existing)
				info.Name = name
				return journalRecord{}, nil
			}
			return journalRecord{}, fmt.Errorf("%w: %q exists with different kind", protocol.ErrExists, name)
		}
		info = protocol.NodeInfo{
			ID: s.allocNode(), Volume: vol, Parent: parent, Kind: kind, Name: name,
			Generation: vr.info.Generation + 1,
		}
		return journalRecord{Kind: recMakeNode, Node: info}, nil
	}})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	return info, nil
}

// MakeFile creates a file node ("touch"); see makeNode.
func (s *Store) MakeFile(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string) (protocol.NodeInfo, error) {
	return s.makeNode(user, vol, parent, name, protocol.KindFile)
}

// MakeDir creates a directory node; see makeNode.
func (s *Store) MakeDir(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string) (protocol.NodeInfo, error) {
	return s.makeNode(user, vol, parent, name, protocol.KindDir)
}

// MakeContent attaches uploaded content to a file node (dal.make_content,
// "the equivalent of an inode"). Its commit keeps dedup reference counts: the
// old content of an updated file is released, the new one referenced, and a
// re-put of the file's own content changes neither. It returns the node's new
// state, the hash freed if the old content lost its last reference, and
// whether this write was an update of existing content — the event class
// behind 18.5% of U1's upload traffic (§5.1).
func (s *Store) MakeContent(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64) (info protocol.NodeInfo, freed *protocol.Hash, wasUpdate bool, err error) {
	if h.IsZero() {
		return protocol.NodeInfo{}, nil, false, errZeroHash
	}
	hashes, err := s.mutate(user, vol, volumeWrite{build: func(sh *shard, vr *volumeRow) (journalRecord, error) {
		nr, ok := sh.nodes.get(node)
		if !ok || nr.vol != vol {
			return journalRecord{}, protocol.ErrNotFound
		}
		if nr.kind != protocol.KindFile {
			return journalRecord{}, errContentOnDir
		}
		wasUpdate = !nr.hash.IsZero() && (nr.hash != h || nr.size != size)
		info = sh.nodes.info(nr)
		info.Hash, info.Size, info.Generation = h, size, vr.info.Generation+1
		return journalRecord{Kind: recMakeContent, Node: info}, nil
	}})
	if err != nil {
		return protocol.NodeInfo{}, nil, false, err
	}
	if len(hashes) > 0 {
		freed = &hashes[0]
	}
	return info, freed, wasUpdate, nil
}

// VolumeWatchers returns the users that must be notified when vol changes:
// the owner plus every grantee with an accepted share. API servers fan
// change events out to the watchers' sessions (§3.4.2).
func (s *Store) VolumeWatchers(vol protocol.VolumeID) ([]protocol.UserID, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, err
	}
	sh := s.shardOf(owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return nil, protocol.ErrNotFound
	}
	out := make([]protocol.UserID, 1, 1+len(vr.grants))
	out[0] = owner
	for grantee, shareID := range vr.grants {
		if share, ok := sh.shares[shareID]; ok && share.Accepted {
			out = append(out, grantee)
		}
	}
	slices.Sort(out[1:])
	return out, nil
}

// GetNode returns a node's metadata (dal.get_node).
func (s *Store) GetNode(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (info protocol.NodeInfo, err error) {
	err = s.view(user, vol, func(sh *shard, _ *volumeRow) error {
		nr, ok := sh.nodes.get(node)
		if !ok || nr.vol != vol {
			return protocol.ErrNotFound
		}
		info = sh.nodes.info(nr)
		return nil
	})
	return info, err
}

// Unlink deletes a node; deleting a directory cascades to its whole subtree
// (dal.unlink_node; §5.2 observes that directory deletion explains matching
// file/dir lifetime distributions). It returns every removed node, the new
// volume generation, and the hashes whose last reference was released.
func (s *Store) Unlink(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (removed []protocol.NodeInfo, gen protocol.Generation, freed []protocol.Hash, err error) {
	freed, err = s.mutate(user, vol, volumeWrite{build: func(sh *shard, vr *volumeRow) (journalRecord, error) {
		if nr, ok := sh.nodes.get(node); !ok || nr.vol != vol {
			return journalRecord{}, protocol.ErrNotFound
		}
		if node == vr.root {
			return journalRecord{}, errUnlinkRoot
		}
		// Depth-first collection of the subtree, children in ascending-ID
		// order, each stamped with the new generation: the removed list is
		// the unlink record and lands in the delta log in this order, so the
		// traversal order is replay- and replication-observable.
		gen = vr.info.Generation + 1
		stack := []protocol.NodeID{node}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cur, _ := sh.nodes.get(id)
			// The children go straight onto the stack, sorted in place there.
			base := len(stack)
			stack = sh.nodes.appendChildren(stack, id)
			slices.Sort(stack[base:])
			info := sh.nodes.view(cur)
			info.Generation = gen
			removed = append(removed, info)
		}
		ownNames(removed)
		return journalRecord{Kind: recUnlink, VolID: vol, Gen: gen, Removed: removed}, nil
	}})
	if err != nil {
		return nil, 0, nil, err
	}
	return removed, gen, freed, nil
}

// Move re-parents or renames a node within its volume (dal.move).
func (s *Store) Move(user protocol.UserID, vol protocol.VolumeID, node, newParent protocol.NodeID, newName string) (protocol.NodeInfo, error) {
	if newName == "" {
		return protocol.NodeInfo{}, errEmptyTargetName
	}
	var info protocol.NodeInfo
	_, err := s.mutate(user, vol, volumeWrite{build: func(sh *shard, vr *volumeRow) (journalRecord, error) {
		nr, ok := sh.nodes.get(node)
		if !ok || nr.vol != vol {
			return journalRecord{}, protocol.ErrNotFound
		}
		if node == vr.root {
			return journalRecord{}, errMoveRoot
		}
		if newParent == 0 {
			newParent = vr.root
		}
		pr, ok := sh.nodes.get(newParent)
		if !ok || pr.vol != vol || pr.kind != protocol.KindDir {
			return journalRecord{}, errTargetDir
		}
		if _, taken := sh.nodes.child(newParent, newName); taken {
			return journalRecord{}, fmt.Errorf("%w: target name %q", protocol.ErrExists, newName)
		}
		// A directory must not be moved under its own subtree.
		if nr.kind == protocol.KindDir {
			for cur := newParent; cur != 0; {
				if cur == node {
					return journalRecord{}, errMoveIntoSubtree
				}
				parentRow, ok := sh.nodes.get(cur)
				if !ok {
					break
				}
				cur = parentRow.parent
			}
		}
		// The request's own name replaces the stored one.
		info = sh.nodes.view(nr)
		info.Parent, info.Name, info.Generation = newParent, newName, vr.info.Generation+1
		return journalRecord{Kind: recMove, Node: info}, nil
	}})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	return info, nil
}

// GetDelta returns the changes of a volume after fromGen in generation order
// (dal.get_delta). If the delta log no longer reaches back to fromGen it
// fails with ErrDeltaTruncated and the caller performs GetFromScratch.
func (s *Store) GetDelta(user protocol.UserID, vol protocol.VolumeID, fromGen protocol.Generation) (deltas protocol.DeltaList, gen protocol.Generation, err error) {
	err = s.view(user, vol, func(_ *shard, vr *volumeRow) error {
		var err error
		if deltas, err = vr.delta(fromGen); err != nil {
			s.m.deltaTruncated.Inc()
		} else {
			s.m.deltaServed.Inc()
		}
		gen = vr.info.Generation
		return err
	})
	return deltas, gen, err
}

// GetFromScratch lists the full contents of a volume — the expensive cascade
// read clients fall back to when deltas are unavailable (dal.get_from_scratch).
// The listing comes as delta entries in ascending node id, none deleted: it is
// the rescan answer to a GetDelta the log could not serve, built once in the
// form that answer travels in.
func (s *Store) GetFromScratch(user protocol.UserID, vol protocol.VolumeID) (list protocol.DeltaList, gen protocol.Generation, err error) {
	err = s.view(user, vol, func(sh *shard, vr *volumeRow) error {
		// Counted after the access checks: only calls that actually pay the
		// cascade cost register, mirroring deltaServed/deltaTruncated.
		s.m.fromScratch.Inc()
		// One walk collects the volume's rows into a pooled list; sorted by
		// node ID, each row is marshalled in order straight into the
		// listing's pooled buffer.
		scratch := listings.Get().(*[]listRow)
		rows := sh.nodes.appendSubtree((*scratch)[:0], sh.nodes.index[vr.root])
		slices.SortFunc(rows, func(a, b listRow) int { return cmp.Compare(a.id, b.id) })
		var out protocol.DeltaWriter
		out.Start(len(rows) * scratchEntryBytes)
		for _, l := range rows {
			out.Add(sh.nodes.view(sh.nodes.at(l.r)), false)
		}
		*scratch = rows
		listings.Put(scratch)
		list, gen = out.List(), vr.info.Generation
		return nil
	})
	return list, gen, err
}

// listings recycles the row lists GetFromScratch sorts.
var listings = sync.Pool{New: func() any { return new([]listRow) }}

// scratchEntryBytes is the room GetFromScratch reserves per entry: about
// what a file's entry takes (its 20-byte hash, a short name, small ids),
// so a listing seldom outgrows the buffer it starts in.
const scratchEntryBytes = 64

// ownNames gives the infos, viewed under the shard lock, names that may
// outlive it: copies, all in one allocation.
func ownNames(infos []protocol.NodeInfo) {
	size := 0
	for _, info := range infos {
		size += len(info.Name)
	}
	var b strings.Builder
	b.Grow(size)
	for _, info := range infos {
		b.WriteString(info.Name)
	}
	all := b.String()
	for i := range infos {
		infos[i].Name, all = all[:len(infos[i].Name)], all[len(infos[i].Name):]
	}
}

// CreateShare offers a volume to another user (dal.create_share): one
// record on the owner's shard, the only one that holds the share's row. The
// grantee must exist, a read of its shard, and its region must serve too.
func (s *Store) CreateShare(owner protocol.UserID, vol protocol.VolumeID, to protocol.UserID, name string, readOnly bool) (protocol.ShareInfo, error) {
	if owner == to {
		return protocol.ShareInfo{}, errShareWithSelf
	}
	var share protocol.ShareInfo
	_, err := s.mutate(owner, vol, volumeWrite{
		ownerOnly: true,
		prepare: func() error {
			if err := s.writeGuard(to); err != nil {
				return err
			}
			share = protocol.ShareInfo{ID: s.allocShare(), Volume: vol, SharedBy: owner, SharedTo: to,
				Name: name, ReadOnly: readOnly}
			gsh := s.shardOf(to)
			gLockedAt := gsh.RLock()
			_, ok := gsh.users[to]
			gsh.RUnlock(gLockedAt)
			if !ok {
				return errGrantee
			}
			return nil
		},
		build: func(_ *shard, vr *volumeRow) (journalRecord, error) {
			if _, dup := vr.grants[to]; dup {
				return journalRecord{}, fmt.Errorf("%w: already shared to %v", protocol.ErrExists, to)
			}
			return journalRecord{Kind: recCreateShare, Share: share}, nil
		},
	})
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	return share, nil
}

// AcceptShare marks a received share as accepted (dal.accept_share); only
// then does the shared volume appear in the grantee's ListVolumes. The
// grantee finds the share in its incoming index; the record goes to the
// owner's shard, which holds the row.
func (s *Store) AcceptShare(user protocol.UserID, id protocol.ShareID) (protocol.ShareInfo, error) {
	if err := s.writeGuard(user); err != nil {
		return protocol.ShareInfo{}, err
	}
	refs, _ := s.incoming.load(user)
	i := slices.IndexFunc(refs, func(r shareRef) bool { return r.id == id })
	if i < 0 {
		return protocol.ShareInfo{}, protocol.ErrNotFound
	}
	// Refuse before mutating the row if the owner's region is down.
	osh, err := s.writeShard(refs[i].owner)
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	var out protocol.ShareInfo
	_, err = s.write(osh, func(sh *shard) (journalRecord, error) {
		share, ok := sh.shares[id]
		if !ok {
			return journalRecord{}, protocol.ErrNotFound // deleted with its volume
		}
		out = *share
		if share.Accepted {
			return journalRecord{}, nil // accepted before: nothing to commit
		}
		out.Accepted = true
		return journalRecord{Kind: recAcceptShare, Share: out}, nil
	})
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	return out, nil
}

// LookupContent reports whether content with hash h is already stored and
// its size (dal.get_reusable_content): the dedup check run before uploads.
// Probing with the zero hash is a protocol violation (it means "no content")
// and fails with ErrBadRequest rather than aliasing every hashless probe to
// one catalog row.
func (s *Store) LookupContent(h protocol.Hash) (size uint64, ok bool, err error) {
	if h.IsZero() {
		return 0, false, errProbeWithoutHash
	}
	size, ok = s.contents.lookup(h)
	return size, ok, nil
}
