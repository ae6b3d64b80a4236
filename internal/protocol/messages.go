package protocol

import (
	"fmt"
	"time"

	"u1/internal/wire"
)

// Frame type bytes of the storage protocol. Clients send FrameRequest,
// servers answer FrameResponse and push unsolicited FramePush notifications
// over the same persistent TCP connection (§3.3, push-based sync).
const (
	FrameRequest  byte = 1
	FrameResponse byte = 2
	FramePush     byte = 3
)

// Request is the client-to-server envelope. One struct serves all operations
// of Table 2: Op selects the operation and the operands it reads. Every field
// is encoded unconditionally (zero values cost one byte each), which keeps
// the codec branch-free and immune to per-op drift.
type Request struct {
	ID uint64 // correlation id, echoed on the response
	Op Op

	Token          string     // Authenticate: OAuth token
	Volume         VolumeID   // target volume
	Node           NodeID     // target node
	Parent         NodeID     // MakeFile/MakeDir/Move destination directory
	Name           string     // node name, UDF path or share name
	Hash           Hash       // PutContent: SHA-1 offered for deduplication
	Size           uint64     // PutContent: plain size in bytes
	CompressedSize uint64     // PutContent: deflated size the client will stream
	Upload         UploadID   // PutPart: multipart upload job
	Part           uint32     // PutPart/GetPart: part index (0-based)
	Data           []byte     // PutPart: part payload
	Final          bool       // PutPart: last part of the upload
	FromGen        Generation // GetDelta: generation known to the client
	ToUser         UserID     // CreateShare: grantee
	ReadOnly       bool       // CreateShare: access level
	Share          ShareID    // AcceptShare: grant being accepted

	// Attempt counts client retries of this request (0 = first try). The
	// server's fault counters use it to tell retried traffic apart.
	Attempt uint8
	// Delay is the client's accumulated retry backoff. Wall-clock transports
	// realize it by actually waiting; the in-process simulator transport
	// instead advances the request's virtual timestamp by it, so a retried
	// request draws a fresh fault decision at a later virtual instant.
	Delay time.Duration
}

// Marshal encodes the request body (without the frame header) into a fresh
// buffer; Data is copied into it.
func (q *Request) Marshal() []byte {
	w := wire.NewWriter(64 + len(q.Name) + len(q.Token))
	q.Encode(w)
	return w.Bytes()
}

// Encode implements wire.Message: the one place the request's field order is
// written down. Data is recorded by reference (wire.Writer.Payload).
func (q *Request) Encode(w *wire.Writer) {
	w.Uvarint(q.ID)
	w.Byte(byte(q.Op))
	w.String(q.Token)
	w.Uvarint(uint64(q.Volume))
	w.Uvarint(uint64(q.Node))
	w.Uvarint(uint64(q.Parent))
	w.String(q.Name)
	w.Bytes_(q.Hash[:])
	w.Uvarint(q.Size)
	w.Uvarint(q.CompressedSize)
	w.Uvarint(uint64(q.Upload))
	w.Uvarint(uint64(q.Part))
	w.Payload(q.Data)
	w.Bool(q.Final)
	w.Uvarint(uint64(q.FromGen))
	w.Uvarint(uint64(q.ToUser))
	w.Bool(q.ReadOnly)
	w.Uvarint(uint64(q.Share))
	w.Byte(q.Attempt)
	w.Uvarint(uint64(q.Delay))
}

// UnmarshalRequest decodes a request body into a fresh request. The
// request's Data aliases buf: ownership of buf passes to the returned message.
func UnmarshalRequest(buf []byte) (*Request, error) {
	q := &Request{}
	if err := q.Decode(buf); err != nil {
		return nil, err
	}
	return q, nil
}

// Decode is the decode-into form of UnmarshalRequest: it wipes q, whatever
// an earlier frame left in it, and fills it from buf, so a connection can
// decode every frame into one slot. After an error q holds a partial decode
// and is good only for another Decode.
func (q *Request) Decode(buf []byte) error {
	*q = Request{}
	r := wire.NewReader(buf)
	q.ID = r.Uvarint()
	q.Op = Op(r.Byte())
	q.Token = r.String()
	q.Volume = VolumeID(r.Uvarint())
	q.Node = NodeID(r.Uvarint())
	q.Parent = NodeID(r.Uvarint())
	q.Name = r.String()
	copy(q.Hash[:], r.Bytes())
	q.Size = r.Uvarint()
	q.CompressedSize = r.Uvarint()
	q.Upload = UploadID(r.Uvarint())
	q.Part = uint32(r.Uvarint())
	if d := r.Bytes(); len(d) > 0 {
		q.Data = d
	}
	q.Final = r.Bool()
	q.FromGen = Generation(r.Uvarint())
	q.ToUser = UserID(r.Uvarint())
	q.ReadOnly = r.Bool()
	q.Share = ShareID(r.Uvarint())
	q.Attempt = r.Byte()
	q.Delay = time.Duration(r.Uvarint())
	if err := r.Err(); err != nil {
		return fmt.Errorf("protocol: decoding request: %w", err)
	}
	return nil
}

// Response is the server-to-client envelope, correlated to a request by ID.
type Response struct {
	ID     uint64
	Status Status

	Session    SessionID    // Authenticate
	User       UserID       // Authenticate
	Volumes    []VolumeInfo // ListVolumes
	Shares     []ShareInfo  // ListShares / CreateShare
	Node       NodeInfo     // Make*/Move/GetContent metadata
	Deltas     []DeltaEntry // GetDelta
	Generation Generation   // post-mutation volume generation
	Reused     bool         // PutContent: content deduplicated, no transfer needed
	Rescan     bool         // GetDelta: log truncated; Deltas carry a full listing
	Upload     UploadID     // PutContent: upload job for the parts
	Parts      uint32       // GetContent: number of parts to fetch
	Hash       Hash         // GetContent metadata
	Size       uint64       // GetContent metadata
	Data       []byte       // GetPart payload

	// home points at the response itself while it is on loan from the
	// recycler (AcquireResponse); a literal's is nil and a copy's points
	// elsewhere, so ReleaseResponse takes back only what it handed out.
	home *Response
}

func marshalVolumeInfo(w *wire.Writer, v VolumeInfo) {
	w.Uvarint(uint64(v.ID))
	w.Byte(byte(v.Type))
	w.String(v.Path)
	w.Uvarint(uint64(v.Generation))
	w.Uvarint(uint64(v.Owner))
}

func unmarshalVolumeInfo(r *wire.Reader) VolumeInfo {
	return VolumeInfo{
		ID:         VolumeID(r.Uvarint()),
		Type:       VolumeType(r.Byte()),
		Path:       r.String(),
		Generation: Generation(r.Uvarint()),
		Owner:      UserID(r.Uvarint()),
	}
}

func marshalShareInfo(w *wire.Writer, s ShareInfo) {
	w.Uvarint(uint64(s.ID))
	w.Uvarint(uint64(s.Volume))
	w.Uvarint(uint64(s.SharedBy))
	w.Uvarint(uint64(s.SharedTo))
	w.String(s.Name)
	w.Bool(s.ReadOnly)
	w.Bool(s.Accepted)
}

func unmarshalShareInfo(r *wire.Reader) ShareInfo {
	return ShareInfo{
		ID:       ShareID(r.Uvarint()),
		Volume:   VolumeID(r.Uvarint()),
		SharedBy: UserID(r.Uvarint()),
		SharedTo: UserID(r.Uvarint()),
		Name:     r.String(),
		ReadOnly: r.Bool(),
		Accepted: r.Bool(),
	}
}

func marshalNodeInfo(w *wire.Writer, n NodeInfo) {
	w.Uvarint(uint64(n.ID))
	w.Uvarint(uint64(n.Volume))
	w.Uvarint(uint64(n.Parent))
	w.Byte(byte(n.Kind))
	w.String(n.Name)
	w.Bytes_(n.Hash[:])
	w.Uvarint(n.Size)
	w.Uvarint(uint64(n.Generation))
}

func unmarshalNodeInfo(r *wire.Reader) NodeInfo {
	n := NodeInfo{
		ID:     NodeID(r.Uvarint()),
		Volume: VolumeID(r.Uvarint()),
		Parent: NodeID(r.Uvarint()),
		Kind:   NodeKind(r.Byte()),
		Name:   r.String(),
	}
	copy(n.Hash[:], r.Bytes())
	n.Size = r.Uvarint()
	n.Generation = Generation(r.Uvarint())
	return n
}

// Marshal encodes the response body (without the frame header) into a fresh
// buffer; Data is copied into it.
func (p *Response) Marshal() []byte {
	w := wire.NewWriter(128)
	p.Encode(w)
	return w.Bytes()
}

// Encode implements wire.Message: the one place the response's field order
// is written down. Data is recorded by reference (wire.Writer.Payload).
func (p *Response) Encode(w *wire.Writer) {
	w.Uvarint(p.ID)
	w.Byte(byte(p.Status))
	w.Uvarint(uint64(p.Session))
	w.Uvarint(uint64(p.User))
	w.Uvarint(uint64(len(p.Volumes)))
	for _, v := range p.Volumes {
		marshalVolumeInfo(w, v)
	}
	w.Uvarint(uint64(len(p.Shares)))
	for _, s := range p.Shares {
		marshalShareInfo(w, s)
	}
	marshalNodeInfo(w, p.Node)
	w.Uvarint(uint64(len(p.Deltas)))
	for _, d := range p.Deltas {
		marshalNodeInfo(w, d.Node)
		w.Bool(d.Deleted)
	}
	w.Uvarint(uint64(p.Generation))
	w.Bool(p.Reused)
	w.Bool(p.Rescan)
	w.Uvarint(uint64(p.Upload))
	w.Uvarint(uint64(p.Parts))
	w.Bytes_(p.Hash[:])
	w.Uvarint(p.Size)
	w.Payload(p.Data)
}

// maxRepeated bounds decoded slice lengths; a hostile length prefix cannot
// force a huge allocation (each element also costs wire bytes, so honest
// messages stay far below this).
const maxRepeated = 1 << 20

// UnmarshalResponse decodes a response body into a fresh response. The
// response's Data aliases buf: ownership of buf passes to the returned
// message.
func UnmarshalResponse(buf []byte) (*Response, error) {
	p := &Response{}
	if err := p.Decode(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Decode is the decode-into form of UnmarshalResponse: it wipes p — no
// Volumes, Deltas or Data of an earlier frame survive — and fills it from
// buf; a response on loan from the recycler stays releasable. After an error
// p holds a partial decode and is good only for another Decode or a release.
func (p *Response) Decode(buf []byte) error {
	*p = Response{home: p.home} // all but its place in the recycler
	r := wire.NewReader(buf)
	p.ID = r.Uvarint()
	p.Status = Status(r.Byte())
	p.Session = SessionID(r.Uvarint())
	p.User = UserID(r.Uvarint())
	nv := r.Uvarint()
	if nv > maxRepeated {
		return fmt.Errorf("protocol: volume list of %d entries", nv)
	}
	for i := uint64(0); i < nv && r.Err() == nil; i++ {
		p.Volumes = append(p.Volumes, unmarshalVolumeInfo(r))
	}
	ns := r.Uvarint()
	if ns > maxRepeated {
		return fmt.Errorf("protocol: share list of %d entries", ns)
	}
	for i := uint64(0); i < ns && r.Err() == nil; i++ {
		p.Shares = append(p.Shares, unmarshalShareInfo(r))
	}
	p.Node = unmarshalNodeInfo(r)
	nd := r.Uvarint()
	if nd > maxRepeated {
		return fmt.Errorf("protocol: delta list of %d entries", nd)
	}
	for i := uint64(0); i < nd && r.Err() == nil; i++ {
		var d DeltaEntry
		d.Node = unmarshalNodeInfo(r)
		d.Deleted = r.Bool()
		p.Deltas = append(p.Deltas, d)
	}
	p.Generation = Generation(r.Uvarint())
	p.Reused = r.Bool()
	p.Rescan = r.Bool()
	p.Upload = UploadID(r.Uvarint())
	p.Parts = uint32(r.Uvarint())
	copy(p.Hash[:], r.Bytes())
	p.Size = r.Uvarint()
	if d := r.Bytes(); len(d) > 0 {
		p.Data = d
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("protocol: decoding response: %w", err)
	}
	return nil
}

// PushEvent enumerates unsolicited server notifications (§3.4.2).
type PushEvent uint8

// Push events.
const (
	// PushVolumeChanged tells the client a volume advanced to a new
	// generation (another device wrote to it); the client reacts with
	// GetDelta and downloads what changed.
	PushVolumeChanged PushEvent = iota
	// PushShareOffered tells the client another user shared a volume with it.
	PushShareOffered
	// PushShareDeleted tells the client a share was revoked.
	PushShareDeleted
)

// String implements fmt.Stringer.
func (e PushEvent) String() string {
	switch e {
	case PushVolumeChanged:
		return "volume-changed"
	case PushShareOffered:
		return "share-offered"
	case PushShareDeleted:
		return "share-deleted"
	default:
		return fmt.Sprintf("push(%d)", uint8(e))
	}
}

// Push is the server-to-client notification envelope.
type Push struct {
	Event      PushEvent
	Volume     VolumeID
	Generation Generation
	Share      ShareInfo
}

// Marshal encodes the push body.
func (n *Push) Marshal() []byte {
	w := wire.NewWriter(64)
	n.Encode(w)
	return w.Bytes()
}

// Encode implements wire.Message.
func (n *Push) Encode(w *wire.Writer) {
	w.Byte(byte(n.Event))
	w.Uvarint(uint64(n.Volume))
	w.Uvarint(uint64(n.Generation))
	marshalShareInfo(w, n.Share)
}

// UnmarshalPush decodes a push body.
func UnmarshalPush(buf []byte) (*Push, error) {
	r := wire.NewReader(buf)
	n := &Push{}
	n.Event = PushEvent(r.Byte())
	n.Volume = VolumeID(r.Uvarint())
	n.Generation = Generation(r.Uvarint())
	n.Share = unmarshalShareInfo(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: decoding push: %w", err)
	}
	return n, nil
}
