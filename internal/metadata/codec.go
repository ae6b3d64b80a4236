package metadata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"u1/internal/protocol"
	"u1/internal/wire"
)

// The durable tier's one binary format, built from the wire protocol's own
// row codecs (protocol.Marshal*/Unmarshal* over wire.Writer/wire.Reader). A
// journal record is encoded once, under the shard write lock that applied
// it; those bytes are the WAL payload and the replication stream alike. A
// snapshot is the shard's rows streamed through the same codecs in
// ascending-ID order behind a magic-and-version header, and its body is also
// what ShardFingerprint digests.

// recKind is a journal record's kind, its first byte. The values are the
// format: a kind is never renumbered.
type recKind byte

// Journal record kinds, one per mutating DAL class. Kinds 8–10 were format
// version 1's share records, which a share journaled on both of its shards
// (drop_share, 10, cleared a grantee's copy); they are retired, and a journal
// holding one is refused (errV1Record).
const (
	recCreateUser recKind = iota + 1
	recCreateUDF
	recMakeNode
	recMakeContent
	recMove
	recUnlink
	recDeleteVolume
	firstV1Share // through lastV1Share: retired
	_
	lastV1Share
	recCreateShare
	recAcceptShare
)

// errV1Record refuses a share record of format version 1.
var errV1Record = fmt.Errorf("metadata: a format version 1 share record, journaled on both shards of its share; this build reads only format version %d, so the store must be rebuilt", snapshotVersion)

var recKindNames = [...]string{
	recCreateUser:   "create_user",
	recCreateUDF:    "create_udf",
	recMakeNode:     "make_node",
	recMakeContent:  "make_content",
	recMove:         "move",
	recUnlink:       "unlink",
	recDeleteVolume: "delete_volume",
	recCreateShare:  "create_share",
	recAcceptShare:  "accept_share",
}

func (k recKind) String() string {
	if int(k) < len(recKindNames) && recKindNames[k] != "" {
		return recKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// encodeRecord appends rec to w: its kind byte, then only the fields that
// kind carries.
func encodeRecord(w *wire.Writer, rec *journalRecord) {
	w.Byte(byte(rec.Kind))
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		w.Uvarint(uint64(rec.User))
		protocol.MarshalVolumeInfo(w, rec.Volume)
		w.Uvarint(uint64(rec.Root))
	case recMakeNode, recMakeContent, recMove:
		protocol.MarshalNodeInfo(w, rec.Node)
	case recUnlink:
		w.Uvarint(uint64(rec.VolID))
		w.Uvarint(uint64(rec.Gen))
		w.Uvarint(uint64(len(rec.Removed)))
		for _, n := range rec.Removed {
			protocol.MarshalNodeInfo(w, n)
		}
	case recDeleteVolume:
		w.Uvarint(uint64(rec.User))
		w.Uvarint(uint64(rec.VolID))
	case recCreateShare, recAcceptShare:
		protocol.MarshalShareInfo(w, rec.Share)
	}
}

// errCount reports a length prefix larger than the bytes that follow it:
// refused before anything is allocated for it.
var errCount = errors.New("metadata: count exceeds the bytes left")

// reader is a wire.Reader that also checks length prefixes against the bytes
// left, for the snapshot decoder. Its first error is sticky, like the
// Reader's: after it every count is zero, so readShard stays straight-line
// code with one check at the end.
type reader struct {
	*wire.Reader
	err error
}

// count reads a length prefix, refusing one that claims more elements than
// there are bytes left (every element takes at least one).
func (r *reader) count() int {
	n := r.Uvarint()
	if r.Err() == nil && r.err == nil && n > uint64(r.Remaining()) {
		r.err = errCount
	}
	if r.error() != nil {
		return 0
	}
	return int(n)
}

// readLog adopts a volume's delta log: it walks the entries, refusing one
// that does not decode or whose generation is below the one before (the
// binary search in volumeRow.delta needs them nondecreasing), and keeps a
// copy of the bytes they took with each entry's offset.
func (r *reader) readLog(vr *volumeRow) {
	n := r.count()
	if n == 0 {
		return
	}
	logAt := make([]uint32, n)
	start := len(r.Consumed())
	var prev protocol.Generation
	for j := range logAt {
		at := len(r.Consumed()) - start
		gen, _ := decodeLogEntry(r.Reader)
		if r.error() != nil {
			return
		}
		switch {
		case gen < prev:
			r.err = errors.New("metadata: delta log generations decrease")
			return
		case uint64(at) > math.MaxUint32:
			r.err = errors.New("metadata: delta log passes 4 GiB")
			return
		}
		logAt[j], prev = uint32(at), gen
	}
	vr.log = &deltaLog{buf: bytes.Clone(r.Consumed()[start:]), at: logAt}
}

func (r *reader) error() error {
	if r.err != nil {
		return r.err
	}
	return r.Err()
}

// decodeRecord reads one record from r into rec, which the caller owns and
// may reuse: every field is overwritten, and rec.Removed's array is reused.
// Truncation, an unknown kind and a hostile count are errors, never panics.
func decodeRecord(r *wire.Reader, rec *journalRecord) error {
	removed := rec.Removed[:0]
	*rec = journalRecord{Kind: recKind(r.Byte()), Removed: removed}
	switch rec.Kind {
	case recCreateUser, recCreateUDF:
		rec.User = protocol.UserID(r.Uvarint())
		rec.Volume = protocol.UnmarshalVolumeInfo(r)
		rec.Root = protocol.NodeID(r.Uvarint())
	case recMakeNode, recMakeContent, recMove:
		rec.Node = protocol.UnmarshalNodeInfo(r)
	case recUnlink:
		rec.VolID = protocol.VolumeID(r.Uvarint())
		rec.Gen = protocol.Generation(r.Uvarint())
		n := r.Uvarint()
		if r.Err() == nil && n > uint64(r.Remaining()) {
			return errCount
		}
		removed = slices.Grow(removed, int(n))
		for i := uint64(0); i < n; i++ {
			removed = append(removed, protocol.UnmarshalNodeInfo(r))
		}
		rec.Removed = removed
	case recDeleteVolume:
		rec.User = protocol.UserID(r.Uvarint())
		rec.VolID = protocol.VolumeID(r.Uvarint())
	case recCreateShare, recAcceptShare:
		rec.Share = protocol.UnmarshalShareInfo(r)
	case firstV1Share, firstV1Share + 1, lastV1Share:
		return errV1Record
	default:
		if r.Err() == nil {
			return fmt.Errorf("metadata: unknown journal record kind %d", byte(rec.Kind))
		}
	}
	return r.Err()
}

// decodePayload decodes a whole WAL payload: exactly one record, nothing
// after it.
func decodePayload(payload []byte, rec *journalRecord) error {
	r := wire.NewReader(payload)
	if err := decodeRecord(r, rec); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("metadata: %d trailing bytes after a %v record", n, rec.Kind)
	}
	return nil
}

// encodeLogEntry appends one delta-log entry to w: the uvarint generation,
// the node, then the deleted byte. A volume's log holds its entries in this
// form, and a snapshot stores the log as those bytes.
func encodeLogEntry(w *wire.Writer, gen protocol.Generation, n protocol.NodeInfo, deleted bool) {
	w.Uvarint(uint64(gen))
	protocol.MarshalNodeInfo(w, n)
	w.Bool(deleted)
}

// decodeLogEntry reads what encodeLogEntry wrote.
func decodeLogEntry(r *wire.Reader) (protocol.Generation, protocol.DeltaEntry) {
	gen := protocol.Generation(r.Uvarint())
	n := protocol.UnmarshalNodeInfo(r)
	return gen, protocol.DeltaEntry{Node: n, Deleted: r.Bool()}
}

// Snapshot file format: snapshotMagic as a length-prefixed string, one
// version byte, the uvarint LSN the snapshot covers, the body writeShard
// streams, then the little-endian CRC-32C (the journal's checksum) of
// everything before it.
const (
	snapshotFile    = "snapshot.bin"
	snapshotMagic   = "U1SNAP"
	snapshotVersion = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeSnapshot streams sh's full state to w as a snapshot covering the
// journal through lsn. Caller holds at least sh's read lock.
func writeSnapshot(w io.Writer, sh *shard, lsn uint64) error {
	var e wire.Writer
	e.String(snapshotMagic)
	e.Byte(snapshotVersion)
	e.Uvarint(lsn)
	crc := crc32.New(castagnoli)
	if err := writeShard(io.MultiWriter(w, crc), &e, sh); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// writeShard streams sh's users, volumes (with their delta logs and grants),
// nodes and shares, each in ascending-ID order, through e onto w, one row per
// Write. The body carries no LSN, so an owner and its replica digest equal.
func writeShard(w io.Writer, e *wire.Writer, sh *shard) error {
	var err error
	row := func() {
		if err == nil {
			_, err = w.Write(e.Bytes())
		}
		e.Reset()
	}

	users := sortedKeys(sh.users)
	e.Uvarint(uint64(len(users)))
	for _, id := range users {
		e.Uvarint(uint64(id))
		e.Uvarint(uint64(sh.users[id].root))
		row()
	}

	vols := sortedKeys(sh.volumes)
	e.Uvarint(uint64(len(vols)))
	for _, id := range vols {
		vr := sh.volumes[id]
		protocol.MarshalVolumeInfo(e, vr.info)
		e.Uvarint(uint64(vr.root))
		e.Uvarint(uint64(vr.droppedThrough))
		buf, at := vr.log.entries()
		e.Uvarint(uint64(len(at)))
		e.Raw(buf)
		grantees := sortedKeys(vr.grants)
		e.Uvarint(uint64(len(grantees)))
		for _, to := range grantees {
			e.Uvarint(uint64(to))
			e.Uvarint(uint64(vr.grants[to]))
		}
		row()
	}

	nodes := sortedKeys(sh.nodes)
	e.Uvarint(uint64(len(nodes)))
	for _, id := range nodes {
		protocol.MarshalNodeInfo(e, sh.nodes[id].info(id))
		row()
	}

	shares := sortedKeys(sh.shares)
	e.Uvarint(uint64(len(shares)))
	for _, id := range shares {
		protocol.MarshalShareInfo(e, *sh.shares[id])
	}
	row()
	return err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// readSnapshot decodes a snapshot file's bytes straight into sh, which must
// be empty, and returns the LSN it covers. A snapshot of another version, or
// one whose checksum fails, is refused before any row is read.
func readSnapshot(sh *shard, data []byte) (lsn uint64, err error) {
	body := data[:max(len(data)-4, 0)]
	r := wire.NewReader(body)
	if string(r.Bytes()) != snapshotMagic {
		return 0, fmt.Errorf("metadata: not a %s snapshot", snapshotMagic)
	}
	if v := r.Byte(); r.Err() == nil && v != snapshotVersion {
		return 0, fmt.Errorf("metadata: snapshot format version %d; this build reads only version %d, so the store must be rebuilt", v, snapshotVersion)
	}
	if r.Err() != nil || crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return 0, errors.New("metadata: snapshot checksum mismatch")
	}
	lsn = r.Uvarint()
	if err := readShard(r, sh); err != nil {
		return 0, err
	}
	if n := r.Remaining(); n != 0 {
		return 0, fmt.Errorf("metadata: %d trailing bytes after the snapshot", n)
	}
	return lsn, nil
}

// readShard decodes what writeShard wrote into the empty shard sh: rows
// first, then the children indexes from each node's (Parent, Name).
func readShard(r *wire.Reader, sh *shard) error {
	d := &reader{Reader: r}
	for i := d.count(); i > 0; i-- {
		u := &userRow{id: protocol.UserID(r.Uvarint()), root: protocol.VolumeID(r.Uvarint())}
		sh.users[u.id] = u
	}

	for i := d.count(); i > 0; i-- {
		vr := &volumeRow{info: protocol.UnmarshalVolumeInfo(r)}
		vr.root = protocol.NodeID(r.Uvarint())
		vr.droppedThrough = protocol.Generation(r.Uvarint())
		d.readLog(vr)
		for j := d.count(); j > 0; j-- {
			vr.addGrant(protocol.UserID(r.Uvarint()), protocol.ShareID(r.Uvarint()))
		}
		sh.volumes[vr.info.ID] = vr
		// Owned-volume lists derive from volume ownership, in ascending
		// volume order on every recovery.
		if u, ok := sh.users[vr.info.Owner]; ok {
			u.addVolume(vr.info.ID)
		}
	}

	for i := d.count(); i > 0; i-- {
		info := protocol.UnmarshalNodeInfo(r)
		sh.nodes[info.ID] = newNodeRow(info)
	}
	for id, nr := range sh.nodes {
		if nr.parent == 0 {
			continue // volume roots hang off volumeRow.root
		}
		if pr, ok := sh.nodes[nr.parent]; ok && pr.kind == protocol.KindDir {
			pr.addChild(nr.name, id)
		}
	}

	for i := d.count(); i > 0; i-- {
		share := protocol.UnmarshalShareInfo(r)
		sh.shares[share.ID] = &share
	}
	return d.error()
}
