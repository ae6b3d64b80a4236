// Package protocol defines the vocabulary of the U1 storage protocol: entity
// identifiers (§3.1.1), the client-facing API operations of Table 2, the DAL
// RPC operations of Tables 2 and 4, status codes, and the binary message
// encodings exchanged between desktop clients and API servers.
//
// Buffer ownership. Request.Decode and Response.Decode do not copy Data out
// of the buffer they decode: the message's Data aliases its input, so the
// caller gives that buffer (in practice the one wire.ReadFrame just
// allocated) to the message and must not reuse it. Strings and every other
// field are copied. Encoding is symmetric: Encode records Data by reference
// and a wire.FrameWriter sends it from where it lies, so Data must stay
// unmodified until the write returns; Marshal copies it.
package protocol

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
)

// UserID identifies a U1 account. The back-end routes every metadata
// operation to a database shard derived from this identifier (§3.4).
type UserID uint64

// VolumeID identifies a volume: a container of nodes. Volume 0 of each user
// is the root volume created at client installation (§3.1.1).
type VolumeID uint64

// NodeID identifies a node (file or directory) within the metadata store.
// The real service used UUIDs generated in the back-end; 64-bit sequence
// numbers preserve the same uniqueness contract with cheaper keys.
type NodeID uint64

// SessionID identifies one storage-protocol session (one TCP connection of a
// desktop client). Sessions do not expire on their own; they end when the
// client disconnects or the server process goes down (§3.1.1).
type SessionID uint64

// ShareID identifies a sharing grant of a volume to another user.
type ShareID uint64

// UploadID identifies a server-side uploadjob tracking a multipart upload
// (appendix A).
type UploadID uint64

// Generation is a per-volume logical clock. Every mutation increments the
// volume generation; clients synchronize by asking for the delta between
// their local generation and the server's (GetDelta, §3.4.2).
type Generation uint64

// String renders the identifier in the u-<n> form used in trace logs.
func (u UserID) String() string { return fmt.Sprintf("u-%d", uint64(u)) }

// Hash is a SHA-1 content hash. Desktop clients send the hash before
// uploading so the server can apply file-based cross-user deduplication
// (§3.3).
type Hash [sha1.Size]byte

// HashBytes returns the SHA-1 hash of data.
func HashBytes(data []byte) Hash { return sha1.Sum(data) }

// Hex returns the lowercase hexadecimal form of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// String implements fmt.Stringer with the sha1: prefix used in U1 logs.
func (h Hash) String() string { return "sha1:" + h.Hex() }

// IsZero reports whether the hash is the zero value (no content).
func (h Hash) IsZero() bool { return h == Hash{} }

// VolumeType distinguishes the three volume flavors of §3.1.1.
type VolumeType uint8

// Volume types.
const (
	VolumeRoot   VolumeType = iota // predefined volume with id 0
	VolumeUDF                      // user-defined folder
	VolumeShared                   // sub-volume of another user shared to this one
)

// String implements fmt.Stringer.
func (v VolumeType) String() string {
	switch v {
	case VolumeRoot:
		return "root"
	case VolumeUDF:
		return "udf"
	case VolumeShared:
		return "shared"
	default:
		return fmt.Sprintf("volume(%d)", uint8(v))
	}
}

// NodeKind distinguishes files from directories.
type NodeKind uint8

// Node kinds.
const (
	KindFile NodeKind = iota
	KindDir
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// VolumeInfo is the client-visible description of a volume.
type VolumeInfo struct {
	ID         VolumeID
	Type       VolumeType
	Path       string // mount path, e.g. "~/Ubuntu One" or the UDF path
	Generation Generation
	Owner      UserID
}

// ShareInfo describes a sharing grant. SharedBy is the owner of the volume,
// SharedTo the user granted access (Table 2, ListShares).
type ShareInfo struct {
	ID       ShareID
	Volume   VolumeID
	SharedBy UserID
	SharedTo UserID
	Name     string
	ReadOnly bool
	Accepted bool
}

// NodeInfo is the client-visible description of a node.
type NodeInfo struct {
	ID         NodeID
	Volume     VolumeID
	Parent     NodeID
	Kind       NodeKind
	Name       string
	Hash       Hash
	Size       uint64
	Generation Generation // volume generation at which this version was written
}

// DeltaEntry is one element of a GetDelta response: the state of a node at a
// generation, or its deletion.
type DeltaEntry struct {
	Node    NodeInfo
	Deleted bool
}
