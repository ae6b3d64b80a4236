package metadata

import (
	"slices"
	"sync/atomic"

	"u1/internal/protocol"
)

// derived is the store-level state that is a function of the owner shards'
// rows, kept beside them instead of journaled. Two paths change it, each
// under the write lock of the shard whose rows it follows: the owner path of
// apply, record by record, and replace, a whole shard's rows at a time.
type derived struct {
	// volumeDir maps every live volume to its owner, the directory the
	// request router consults to find the shard that holds a volume that is
	// not the caller's (shared volumes may live in a different shard).
	volumeDir stripedMap[protocol.VolumeID, protocol.UserID]
	// incoming maps every grantee to the shares it holds, each row kept on
	// its owner's shard only. Each value is replaced, never changed in place,
	// so a reader may range over what it loaded.
	incoming stripedMap[protocol.UserID, []shareRef]
	// contents counts, per hash, the live file nodes that hold it.
	contents contentRegistry

	nextVolume uint64
	nextNode   uint64
	nextShare  uint64
}

// unref drops a node's reference to h, if any, and adds h to freed if last.
func (d *derived) unref(freed []protocol.Hash, h protocol.Hash) []protocol.Hash {
	if d != nil && !h.IsZero() && d.contents.release(h) {
		freed = append(freed, h)
	}
	return freed
}

// share enters share in its grantee's incoming refs once, or with !in drops it.
func (d *derived) share(share protocol.ShareInfo, in bool) {
	if d == nil {
		return
	}
	d.incoming.update(share.SharedTo, func(refs []shareRef) ([]shareRef, bool) {
		refs = slices.DeleteFunc(slices.Clone(refs), func(r shareRef) bool { return r.id == share.ID })
		if in {
			refs = append(refs, shareRef{share.ID, share.SharedBy})
		}
		return refs, len(refs) > 0
	})
}

// replace restarts sh, under its write lock, from the rows load reads into it
// (all it left if it failed) and swaps sh's part of derived state: the new
// rows go in, allocators past their IDs, before the old rows come out. So no
// hash both hold passes through zero references, no volume both hold leaves
// the directory, and the other shards serve throughout. A nil d: rows only.
func (d *derived) replace(sh *shard, load func() error) error {
	sh.LockUncounted()
	defer sh.UnlockUncounted()
	old := &shard{volumes: sh.volumes, nodes: sh.nodes, shares: sh.shares}
	sh.reset()
	err := load()
	if d == nil {
		return err
	}
	for id, vr := range sh.volumes {
		d.volumeDir.store(id, vr.info.Owner)
		bumpTo(&d.nextVolume, uint64(id))
	}
	sh.nodes.each(func(nr *row) {
		if !nr.hash.IsZero() {
			d.contents.addRef(nr.hash, nr.size)
		}
		bumpTo(&d.nextNode, uint64(nr.id))
	})
	for _, id := range sortedKeys(sh.shares) {
		d.share(*sh.shares[id], true)
		bumpTo(&d.nextShare, uint64(id))
	}
	for id := range old.volumes {
		if _, kept := sh.volumes[id]; !kept {
			d.volumeDir.delete(id)
		}
	}
	old.nodes.each(func(nr *row) { d.unref(nil, nr.hash) })
	for id, share := range old.shares {
		if _, kept := sh.shares[id]; !kept {
			d.share(*share, false)
		}
	}
	return err
}

// bumpTo raises the allocator at addr to at least v, so identifiers observed
// in recovered state are never reissued.
func bumpTo(addr *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(addr)
		if cur >= v || atomic.CompareAndSwapUint64(addr, cur, v) {
			return
		}
	}
}
