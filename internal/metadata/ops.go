package metadata

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"u1/internal/metrics"
	"u1/internal/protocol"
)

// CreateUser provisions an account: the user row, the root volume (id
// reported to clients as their volume 0 equivalent) and its root directory.
// Creating an existing user is idempotent and returns the existing root
// volume, so client re-installs do not error.
func (s *Store) CreateUser(user protocol.UserID) (protocol.VolumeInfo, error) {
	sh := s.shardOf(user)
	defer sh.Unlock(sh.Lock())
	if u, ok := sh.users[user]; ok {
		// Idempotent ensure for an existing user is a pure read; it must
		// keep working while the user's home region is down so logins
		// (Authenticate ensures the user) survive the outage.
		return sh.volumes[u.root].info, nil
	}
	if err := s.writeGuard(user); err != nil {
		return protocol.VolumeInfo{}, err
	}
	return s.createVolume(sh, recCreateUser, user, protocol.VolumeRoot, "~/Ubuntu One")
}

// createVolume commits a new volume plus its root directory — a user's root
// volume (recCreateUser, which also creates the user row) or a UDF — in sh,
// which must be write-locked.
func (s *Store) createVolume(sh *shard, kind recKind, owner protocol.UserID, typ protocol.VolumeType, path string) (protocol.VolumeInfo, error) {
	info := protocol.VolumeInfo{ID: s.allocVolume(), Type: typ, Path: path, Owner: owner}
	if err := s.commit(sh, journalRecord{Kind: kind, User: owner, Volume: info, Root: s.allocNode()}); err != nil {
		return protocol.VolumeInfo{}, err
	}
	s.volumeDir.store(info.ID, owner)
	return info, nil
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

// ListVolumes lists all volumes of a user: root, UDFs and accepted shared
// volumes (dal.list_volumes; performed at session start, Table 2).
func (s *Store) ListVolumes(user protocol.UserID) ([]protocol.VolumeInfo, error) {
	sh := s.shardOf(user)
	lockedAt := sh.RLock()
	u, ok := sh.users[user]
	if !ok {
		sh.RUnlock(lockedAt)
		return nil, protocol.ErrNotFound
	}
	out := make([]protocol.VolumeInfo, 0, len(u.volumes)+len(u.sharesIn))
	for _, volID := range u.volumes {
		out = append(out, sh.volumes[volID].info)
	}
	slices.SortFunc(out, func(a, b protocol.VolumeInfo) int { return cmp.Compare(a.ID, b.ID) })
	// Collect accepted incoming shares; their volumes may live in other
	// shards, so resolve them after releasing this shard's lock.
	var sharedVols []protocol.VolumeID
	for shareID := range u.sharesIn {
		if share, ok := sh.shares[shareID]; ok && share.Accepted {
			sharedVols = append(sharedVols, share.Volume)
		}
	}
	sh.RUnlock(lockedAt)
	slices.Sort(sharedVols)

	for _, volID := range sharedVols {
		owner, err := s.ownerOf(volID)
		if err != nil {
			continue // volume deleted concurrently
		}
		osh := s.readShardFor(user, owner)
		oLockedAt := osh.RLock()
		if vr, ok := osh.volumes[volID]; ok {
			info := vr.info
			info.Type = protocol.VolumeShared
			out = append(out, info)
		}
		osh.RUnlock(oLockedAt)
	}
	return out, nil
}

// ListShares lists sharing grants involving the user, both received and
// offered (dal.list_shares, Table 2).
func (s *Store) ListShares(user protocol.UserID) ([]protocol.ShareInfo, error) {
	sh := s.shardOf(user)
	defer sh.RUnlock(sh.RLock())
	u, ok := sh.users[user]
	if !ok {
		return nil, protocol.ErrNotFound
	}
	out := make([]protocol.ShareInfo, 0, len(u.sharesIn)+len(u.sharesOut))
	for id := range u.sharesIn {
		if share, ok := sh.shares[id]; ok {
			out = append(out, *share)
		}
	}
	for id := range u.sharesOut {
		if share, ok := sh.shares[id]; ok {
			out = append(out, *share)
		}
	}
	slices.SortFunc(out, func(a, b protocol.ShareInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out, nil
}

// CreateUDF creates a user-defined volume (dal.create_udf).
func (s *Store) CreateUDF(user protocol.UserID, path string) (protocol.VolumeInfo, error) {
	if path == "" {
		return protocol.VolumeInfo{}, fmt.Errorf("%w: empty UDF path", protocol.ErrBadRequest)
	}
	if err := s.writeGuard(user); err != nil {
		return protocol.VolumeInfo{}, err
	}
	sh := s.shardOf(user)
	defer sh.Unlock(sh.Lock())
	u, ok := sh.users[user]
	if !ok {
		return protocol.VolumeInfo{}, protocol.ErrNotFound
	}
	for _, volID := range u.volumes {
		if sh.volumes[volID].info.Path == path {
			return protocol.VolumeInfo{}, fmt.Errorf("%w: UDF %q", protocol.ErrExists, path)
		}
	}
	return s.createVolume(sh, recCreateUDF, user, protocol.VolumeUDF, path)
}

// GetVolume returns a volume's metadata (dal.get_volume_id).
func (s *Store) GetVolume(user protocol.UserID, vol protocol.VolumeID) (protocol.VolumeInfo, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	sh := s.readShardFor(user, owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return protocol.VolumeInfo{}, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, false); err != nil {
		return protocol.VolumeInfo{}, err
	}
	return vr.info, nil
}

// DeleteVolume removes a volume and every node it contains — the cascade RPC
// the paper singles out as the slowest class (dal.delete_volume, Fig. 13).
// It returns the nodes removed so the caller can release blobs and notify
// clients, and the hashes whose last reference went away.
func (s *Store) DeleteVolume(user protocol.UserID, vol protocol.VolumeID) (removed []protocol.NodeInfo, freed []protocol.Hash, err error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, nil, err
	}
	if owner != user {
		return nil, nil, protocol.ErrPermission // only owners delete volumes
	}
	if err := s.writeGuard(owner); err != nil {
		return nil, nil, err
	}
	sh := s.shardOf(owner)
	lockedAt := sh.Lock()
	vr, ok := sh.volumes[vol]
	if !ok {
		sh.Unlock(lockedAt)
		return nil, nil, protocol.ErrNotFound
	}
	if vr.info.Type == protocol.VolumeRoot {
		sh.Unlock(lockedAt)
		return nil, nil, fmt.Errorf("%w: cannot delete the root volume", protocol.ErrBadRequest)
	}
	// Read what the record is about to remove: the nodes go back to the
	// caller, and grantees on other shards get their own drop_share below.
	for _, nodeID := range volumeNodeIDs(sh, vr) {
		removed = append(removed, sh.nodes[nodeID].info(nodeID))
	}
	grantees := maps.Clone(vr.grants)
	err = s.commit(sh, journalRecord{Kind: recDeleteVolume, User: user, VolID: vol})
	sh.Unlock(lockedAt)
	if err != nil {
		return nil, nil, err
	}
	s.volumeDir.delete(vol)

	// Eagerly tombstone every revoked grant in the peer regions: a grantee
	// reading through its region's replica must lose access now, not when the
	// delete record ripens in the replication log (and a create_share not yet
	// applied there must not resurrect the grant in between).
	s.revokeCrossRegion(sh.id, grantees)

	// Grantee cleanup walks in ascending user order: every iteration journals
	// a drop_share record in the grantee's shard, and the replication stream
	// publishes journal records in apply order, so the iteration order here is
	// cross-region-observable state.
	granteeIDs := make([]protocol.UserID, 0, len(grantees))
	for grantee := range grantees {
		granteeIDs = append(granteeIDs, grantee)
	}
	sort.Slice(granteeIDs, func(i, j int) bool { return granteeIDs[i] < granteeIDs[j] })
	for _, grantee := range granteeIDs {
		shareID := grantees[grantee]
		gsh := s.shardOf(grantee)
		if gsh == sh {
			continue // the delete_volume record already dropped it
		}
		gLockedAt := gsh.Lock()
		err := s.commit(gsh, journalRecord{Kind: recDropShare, Share: protocol.ShareInfo{ID: shareID, SharedTo: grantee}})
		gsh.Unlock(gLockedAt)
		if err != nil {
			return nil, nil, err // a fenced grantee shard: recovery rebuilds the references
		}
	}

	// Release content references outside any shard lock.
	for _, n := range removed {
		if n.Kind == protocol.KindFile && !n.Hash.IsZero() {
			if s.contents.release(n.Hash) {
				freed = append(freed, n.Hash)
			}
		}
	}
	return removed, freed, nil
}

// makeNode implements MakeFile and MakeDir (dal.make_file / dal.make_dir).
// Creating a node that already exists under the same parent and kind is
// idempotent and returns the existing node: clients re-send Make before
// uploads (Table 2: "normally precedes a file upload").
func (s *Store) makeNode(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string, kind protocol.NodeKind) (protocol.NodeInfo, error) {
	if name == "" {
		return protocol.NodeInfo{}, fmt.Errorf("%w: empty node name", protocol.ErrBadRequest)
	}
	owner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	if err := s.writeGuard(owner); err != nil {
		return protocol.NodeInfo{}, err
	}
	sh := s.shardOf(owner)
	defer sh.Unlock(sh.Lock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return protocol.NodeInfo{}, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, true); err != nil {
		return protocol.NodeInfo{}, err
	}
	if parent == 0 {
		parent = vr.root
	}
	pr, ok := sh.nodes[parent]
	if !ok || pr.vol != vol {
		return protocol.NodeInfo{}, fmt.Errorf("%w: parent node", protocol.ErrNotFound)
	}
	if pr.kind != protocol.KindDir {
		return protocol.NodeInfo{}, fmt.Errorf("%w: parent is a file", protocol.ErrBadRequest)
	}
	if existingID, ok := pr.children[name]; ok {
		existing := sh.nodes[existingID]
		if existing.kind == kind {
			return existing.info(existingID), nil
		}
		return protocol.NodeInfo{}, fmt.Errorf("%w: %q exists with different kind", protocol.ErrExists, name)
	}
	info := protocol.NodeInfo{
		ID: s.allocNode(), Volume: vol, Parent: parent, Kind: kind, Name: name,
		Generation: vr.info.Generation + 1,
	}
	if err := s.commit(sh, journalRecord{Kind: recMakeNode, Node: info}); err != nil {
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
// "the equivalent of an inode"). It maintains dedup reference counts: the old
// content of an updated file is released, the new one referenced. It returns
// the node's new state, the hash freed if the old content lost its last
// reference, and whether this write was an update of existing content — the
// event class behind 18.5% of U1's upload traffic (§5.1).
func (s *Store) MakeContent(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64) (info protocol.NodeInfo, freed *protocol.Hash, wasUpdate bool, err error) {
	if h.IsZero() {
		return protocol.NodeInfo{}, nil, false, fmt.Errorf("%w: zero content hash", protocol.ErrBadRequest)
	}
	owner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.NodeInfo{}, nil, false, err
	}
	if err := s.writeGuard(owner); err != nil {
		return protocol.NodeInfo{}, nil, false, err
	}
	sh := s.shardOf(owner)
	lockedAt := sh.Lock()
	vr, ok := sh.volumes[vol]
	if !ok {
		sh.Unlock(lockedAt)
		return protocol.NodeInfo{}, nil, false, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, true); err != nil {
		sh.Unlock(lockedAt)
		return protocol.NodeInfo{}, nil, false, err
	}
	nr, ok := sh.nodes[node]
	if !ok || nr.vol != vol {
		sh.Unlock(lockedAt)
		return protocol.NodeInfo{}, nil, false, protocol.ErrNotFound
	}
	if nr.kind != protocol.KindFile {
		sh.Unlock(lockedAt)
		return protocol.NodeInfo{}, nil, false, fmt.Errorf("%w: content on a directory", protocol.ErrBadRequest)
	}
	oldHash := nr.hash
	wasUpdate = !oldHash.IsZero() && (oldHash != h || nr.size != size)
	info = nr.info(node)
	info.Hash, info.Size, info.Generation = h, size, vr.info.Generation+1
	err = s.commit(sh, journalRecord{Kind: recMakeContent, Node: info})
	sh.Unlock(lockedAt)
	if err != nil {
		return protocol.NodeInfo{}, nil, false, err
	}

	s.contents.addRef(h, size)
	if !oldHash.IsZero() && oldHash != h {
		if s.contents.release(oldHash) {
			freed = &oldHash
		}
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
func (s *Store) GetNode(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (protocol.NodeInfo, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	sh := s.readShardFor(user, owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return protocol.NodeInfo{}, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, false); err != nil {
		return protocol.NodeInfo{}, err
	}
	nr, ok := sh.nodes[node]
	if !ok || nr.vol != vol {
		return protocol.NodeInfo{}, protocol.ErrNotFound
	}
	return nr.info(node), nil
}

// Unlink deletes a node; deleting a directory cascades to its whole subtree
// (dal.unlink_node; §5.2 observes that directory deletion explains matching
// file/dir lifetime distributions). It returns every removed node, the new
// volume generation, and the hashes whose last reference was released.
func (s *Store) Unlink(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (removed []protocol.NodeInfo, gen protocol.Generation, freed []protocol.Hash, err error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := s.writeGuard(owner); err != nil {
		return nil, 0, nil, err
	}
	sh := s.shardOf(owner)
	lockedAt := sh.Lock()
	vr, ok := sh.volumes[vol]
	if !ok {
		sh.Unlock(lockedAt)
		return nil, 0, nil, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, true); err != nil {
		sh.Unlock(lockedAt)
		return nil, 0, nil, err
	}
	nr, ok := sh.nodes[node]
	if !ok || nr.vol != vol {
		sh.Unlock(lockedAt)
		return nil, 0, nil, protocol.ErrNotFound
	}
	if node == vr.root {
		sh.Unlock(lockedAt)
		return nil, 0, nil, fmt.Errorf("%w: cannot unlink the volume root", protocol.ErrBadRequest)
	}
	// Depth-first collection of the subtree, children in ascending-ID order,
	// each stamped with the new generation: the removed list is the unlink
	// record and lands in the delta log in this order, so the traversal order
	// is replay- and replication-observable.
	gen = vr.info.Generation + 1
	stack := []protocol.NodeID{node}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur := sh.nodes[id]
		// The children go straight onto the stack, sorted in place there.
		base := len(stack)
		for _, child := range cur.children {
			stack = append(stack, child)
		}
		slices.Sort(stack[base:])
		info := cur.info(id)
		info.Generation = gen
		removed = append(removed, info)
	}
	err = s.commit(sh, journalRecord{Kind: recUnlink, VolID: vol, Gen: gen, Removed: removed})
	sh.Unlock(lockedAt)
	if err != nil {
		return nil, 0, nil, err
	}

	for _, n := range removed {
		if n.Kind == protocol.KindFile && !n.Hash.IsZero() {
			if s.contents.release(n.Hash) {
				freed = append(freed, n.Hash)
			}
		}
	}
	return removed, gen, freed, nil
}

// Move re-parents or renames a node within its volume (dal.move).
func (s *Store) Move(user protocol.UserID, vol protocol.VolumeID, node, newParent protocol.NodeID, newName string) (protocol.NodeInfo, error) {
	if newName == "" {
		return protocol.NodeInfo{}, fmt.Errorf("%w: empty target name", protocol.ErrBadRequest)
	}
	owner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	if err := s.writeGuard(owner); err != nil {
		return protocol.NodeInfo{}, err
	}
	sh := s.shardOf(owner)
	defer sh.Unlock(sh.Lock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return protocol.NodeInfo{}, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, true); err != nil {
		return protocol.NodeInfo{}, err
	}
	nr, ok := sh.nodes[node]
	if !ok || nr.vol != vol {
		return protocol.NodeInfo{}, protocol.ErrNotFound
	}
	if node == vr.root {
		return protocol.NodeInfo{}, fmt.Errorf("%w: cannot move the volume root", protocol.ErrBadRequest)
	}
	if newParent == 0 {
		newParent = vr.root
	}
	pr, ok := sh.nodes[newParent]
	if !ok || pr.vol != vol || pr.kind != protocol.KindDir {
		return protocol.NodeInfo{}, fmt.Errorf("%w: target directory", protocol.ErrNotFound)
	}
	if _, taken := pr.children[newName]; taken {
		return protocol.NodeInfo{}, fmt.Errorf("%w: target name %q", protocol.ErrExists, newName)
	}
	// A directory must not be moved under its own subtree.
	if nr.kind == protocol.KindDir {
		for cur := newParent; cur != 0; {
			if cur == node {
				return protocol.NodeInfo{}, fmt.Errorf("%w: move into own subtree", protocol.ErrBadRequest)
			}
			parentRow, ok := sh.nodes[cur]
			if !ok {
				break
			}
			cur = parentRow.parent
		}
	}
	info := nr.info(node)
	info.Parent, info.Name, info.Generation = newParent, newName, vr.info.Generation+1
	if err := s.commit(sh, journalRecord{Kind: recMove, Node: info}); err != nil {
		return protocol.NodeInfo{}, err
	}
	return info, nil
}

// GetDelta returns the changes of a volume after fromGen in generation order
// (dal.get_delta). If the delta log no longer reaches back to fromGen it
// fails with ErrDeltaTruncated and the caller performs GetFromScratch.
func (s *Store) GetDelta(user protocol.UserID, vol protocol.VolumeID, fromGen protocol.Generation) ([]protocol.DeltaEntry, protocol.Generation, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, 0, err
	}
	sh := s.readShardFor(user, owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return nil, 0, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, false); err != nil {
		return nil, 0, err
	}
	deltas, err := vr.delta(fromGen)
	if err != nil {
		s.m.deltaTruncated.Inc()
	} else {
		s.m.deltaServed.Inc()
	}
	return deltas, vr.info.Generation, err
}

// GetFromScratch lists the full contents of a volume — the expensive cascade
// read clients fall back to when deltas are unavailable (dal.get_from_scratch).
// The listing comes as delta entries in ascending node id, none deleted: it is
// the rescan answer to a GetDelta the log could not serve, built once in the
// form that answer travels in.
func (s *Store) GetFromScratch(user protocol.UserID, vol protocol.VolumeID) ([]protocol.DeltaEntry, protocol.Generation, error) {
	owner, err := s.ownerOf(vol)
	if err != nil {
		return nil, 0, err
	}
	sh := s.readShardFor(user, owner)
	defer sh.RUnlock(sh.RLock())
	vr, ok := sh.volumes[vol]
	if !ok {
		return nil, 0, protocol.ErrNotFound
	}
	if err := checkAccessLocked(sh, vr, user, false); err != nil {
		return nil, 0, err
	}
	// Counted after the access checks: only calls that actually pay the
	// cascade cost register, mirroring deltaServed/deltaTruncated.
	s.m.fromScratch.Inc()
	// One walk lists the volume: breadth-first from the root, the listing
	// itself serving as the walk's queue, into an array sized by counting
	// the subtree first. Entries carry only their id until the listing is
	// sorted, so the sort moves ids; then each is filled in place.
	out := make(idListing, 1, subtreeSize(sh, vr.root))
	out[0].Node.ID = vr.root
	for i := 0; i < len(out); i++ {
		for _, child := range sh.nodes[out[i].Node.ID].children {
			out = append(out, protocol.DeltaEntry{Node: protocol.NodeInfo{ID: child}})
		}
	}
	sort.Sort(out)
	for i := range out {
		id := out[i].Node.ID
		out[i].Node = sh.nodes[id].info(id)
	}
	return out, vr.info.Generation, nil
}

// idListing sorts a listing whose entries hold nothing but their ids.
type idListing []protocol.DeltaEntry

func (l idListing) Len() int           { return len(l) }
func (l idListing) Less(i, j int) bool { return l[i].Node.ID < l[j].Node.ID }
func (l idListing) Swap(i, j int)      { l[i].Node.ID, l[j].Node.ID = l[j].Node.ID, l[i].Node.ID }

// subtreeSize counts the nodes of the subtree rooted at id, id included,
// without allocating.
func subtreeSize(sh *shard, id protocol.NodeID) int {
	n := 1
	for _, child := range sh.nodes[id].children {
		n += subtreeSize(sh, child)
	}
	return n
}

// CreateShare offers a volume to another user (dal.create_share). The share
// row is written to both the owner's and the grantee's shards — the only
// operation class that must involve more than one shard (§3.4).
func (s *Store) CreateShare(owner protocol.UserID, vol protocol.VolumeID, to protocol.UserID, name string, readOnly bool) (protocol.ShareInfo, error) {
	if owner == to {
		return protocol.ShareInfo{}, fmt.Errorf("%w: sharing with oneself", protocol.ErrBadRequest)
	}
	volOwner, err := s.ownerOf(vol)
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	if volOwner != owner {
		return protocol.ShareInfo{}, protocol.ErrPermission
	}
	// The share row is written to both shards, so both owning regions must be
	// serving.
	if err := s.writeGuard(owner); err != nil {
		return protocol.ShareInfo{}, err
	}
	if err := s.writeGuard(to); err != nil {
		return protocol.ShareInfo{}, err
	}
	share := protocol.ShareInfo{
		ID:       s.allocShare(),
		Volume:   vol,
		SharedBy: owner,
		SharedTo: to,
		Name:     name,
		ReadOnly: readOnly,
	}
	osh, gsh := s.shardOf(owner), s.shardOf(to)
	defer unlockPair(osh, gsh, lockPair(osh, gsh))
	vr, ok := osh.volumes[vol]
	if !ok {
		return protocol.ShareInfo{}, protocol.ErrNotFound
	}
	if _, ok := gsh.users[to]; !ok {
		return protocol.ShareInfo{}, fmt.Errorf("%w: grantee", protocol.ErrNotFound)
	}
	if _, dup := vr.grants[to]; dup {
		return protocol.ShareInfo{}, fmt.Errorf("%w: already shared to %v", protocol.ErrExists, to)
	}
	// One record per shard: the owner's shard takes the grant, the grantee's
	// the incoming share; when both users live on one shard, its one record
	// does both.
	err = s.commit(osh, journalRecord{Kind: recCreateShare, Share: share})
	if osh != gsh && err == nil {
		err = s.commit(gsh, journalRecord{Kind: recCreateShare, Share: share})
	}
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	return share, nil
}

// AcceptShare marks a received share as accepted (dal.accept_share); only
// then does the shared volume appear in the grantee's ListVolumes.
func (s *Store) AcceptShare(user protocol.UserID, id protocol.ShareID) (protocol.ShareInfo, error) {
	if err := s.writeGuard(user); err != nil {
		return protocol.ShareInfo{}, err
	}
	gsh := s.shardOf(user)
	gLockedAt := gsh.Lock()
	share, ok := gsh.shares[id]
	if !ok || share.SharedTo != user {
		gsh.Unlock(gLockedAt)
		return protocol.ShareInfo{}, protocol.ErrNotFound
	}
	owner := share.SharedBy
	// The accepted flag mirrors into the owner's shard; refuse before
	// mutating either side if the owner's region is down.
	if err := s.writeGuard(owner); err != nil {
		gsh.Unlock(gLockedAt)
		return protocol.ShareInfo{}, err
	}
	out := *share
	out.Accepted = true
	err := s.commit(gsh, journalRecord{Kind: recAcceptShare, Share: out})
	gsh.Unlock(gLockedAt)

	// Mirror the accepted flag in the owner's shard copy.
	if osh := s.shardOf(owner); osh != gsh && err == nil {
		oLockedAt := osh.Lock()
		err = s.commit(osh, journalRecord{Kind: recAcceptShare, Share: out})
		osh.Unlock(oLockedAt)
	}
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	return out, nil
}

// lockPair write-locks two shards in id order, avoiding deadlock between
// concurrent cross-shard operations, and counts one write on each; the same
// shard twice is locked and counted once. unlockPair releases them in
// reverse order and charges each master its own hold.
func lockPair(a, b *shard) (holds [2]metrics.Stopwatch) {
	if a.id > b.id {
		a, b = b, a
	}
	holds[0] = a.Lock()
	if a != b {
		holds[1] = b.Lock()
	}
	return holds
}

func unlockPair(a, b *shard, holds [2]metrics.Stopwatch) {
	if a.id > b.id {
		a, b = b, a
	}
	if a != b {
		b.Unlock(holds[1])
	}
	a.Unlock(holds[0])
}

// LookupContent reports whether content with hash h is already stored and
// its size (dal.get_reusable_content): the dedup check run before uploads.
// Probing with the zero hash is a protocol violation (it means "no content")
// and fails with ErrBadRequest rather than aliasing every hashless probe to
// one catalog row.
func (s *Store) LookupContent(h protocol.Hash) (size uint64, ok bool, err error) {
	if h.IsZero() {
		return 0, false, fmt.Errorf("%w: dedup probe without a content hash", protocol.ErrBadRequest)
	}
	size, ok = s.contents.lookup(h)
	return size, ok, nil
}
