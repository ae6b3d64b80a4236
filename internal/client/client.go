package client

import (
	"bytes"
	"compress/flate"
	"fmt"
	"slices"
	"sync"
	"time"

	"u1/internal/blob"
	"u1/internal/protocol"
)

// mirror is the client-side replica of one volume: the node set at a known
// generation, the synchronization metadata U1 kept under
// ~/.cache/ubuntuone (§3.3). Its nodes are one slice of rows sorted by
// NodeID, found by bisection; the zero value is an empty mirror.
type mirror struct {
	info protocol.VolumeInfo
	gen  protocol.Generation
	rows []mirrorRow
	// dirty marks that a local mutation advanced the server past what the
	// mirror replayed contiguously; the next Sync reconciles.
	dirty bool
}

// mirrorRow is one node of a mirror.
type mirrorRow struct {
	id protocol.NodeID
	Node
}

// Mirror is a copy of the client-side replica of one volume.
type Mirror struct {
	Info  protocol.VolumeInfo
	Gen   protocol.Generation
	Nodes map[protocol.NodeID]Node
}

// Node is a mirror's entry for one node: the fields the client reads. The id
// is the entry's key and the volume the mirror's; the node's own generation
// is the server's business.
type Node struct {
	Name   string
	Parent protocol.NodeID
	Size   uint64
	Hash   protocol.Hash
	Kind   protocol.NodeKind
	// gone marks a row a Sync deleted, taken out in one pass when the Sync
	// ends; no Node read out of a mirror carries it.
	gone bool
}

// nodeOf keeps what a mirror needs of a protocol node.
func nodeOf(n *protocol.NodeInfo) Node {
	return Node{Name: n.Name, Parent: n.Parent, Size: n.Size, Hash: n.Hash, Kind: n.Kind}
}

// findRow bisects rows, sorted by id, for id: where it is or goes, and
// whether it is there. An id past the last row, as a new node's is, costs
// one comparison.
func findRow(rows []mirrorRow, id protocol.NodeID) (int, bool) {
	lo, hi := 0, len(rows)
	if hi > 0 && rows[hi-1].id < id {
		lo = hi
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rows) && rows[lo].id == id
}

// lookupRow returns node id of rows, unless it is not there or gone.
func lookupRow(rows []mirrorRow, id protocol.NodeID) (Node, bool) {
	if i, ok := findRow(rows, id); ok && !rows[i].gone {
		return rows[i].Node, true
	}
	return Node{}, false
}

// seekRow is lookupRow over rows holding no gone row with a cursor, at: an
// ascending run of ids finds each a step or two past the last, and an id
// behind the cursor bisects.
func seekRow(rows []mirrorRow, id protocol.NodeID, at int) (Node, bool, int) {
	if at > 0 && rows[at-1].id >= id {
		n, ok := lookupRow(rows[:at], id)
		return n, ok, at
	}
	for at < len(rows) && rows[at].id < id {
		at++
	}
	if at < len(rows) && rows[at].id == id {
		return rows[at].Node, true, at + 1
	}
	return Node{}, false, at
}

// putRow stores n as node id at i, where findRow placed id: over the row
// there when found, else inserted.
func putRow(rows []mirrorRow, i int, found bool, id protocol.NodeID, n Node) []mirrorRow {
	if found {
		rows[i].Node = n
		return rows
	}
	return slices.Insert(rows, i, mirrorRow{id, n})
}

// Stats counts client-side activity.
type Stats struct {
	Uploads    uint64
	Downloads  uint64
	DedupHits  uint64
	BytesUp    uint64
	BytesDown  uint64
	SyncsRun   uint64
	Rescans    uint64
	PushesSeen uint64
	// Retries counts per-op retry attempts of transient failures;
	// RetrySuccesses the retried ops that eventually completed. OpErrors
	// counts operations that failed for good (after any retries).
	Retries        uint64
	RetrySuccesses uint64
	OpErrors       uint64
}

// Client is the desktop sync client.
type Client struct {
	t Transport

	// AutoFetch makes Sync download the contents of new/changed files, the
	// default desktop behavior ("the client acts on the incoming push and
	// starts the download", §3.3).
	AutoFetch bool

	// Retry bounds per-op retry of transient failures (unavailable,
	// overloaded, cancelled). Zero disables retries. Set before issuing
	// traffic; it is read without synchronization on the request path.
	Retry Retry

	mu      sync.Mutex
	user    protocol.UserID
	session protocol.SessionID
	mirrors map[protocol.VolumeID]*mirror
	shares  []protocol.ShareInfo
	stats   Stats
}

// New creates a client over the given transport.
func New(t Transport) *Client {
	return &Client{t: t, mirrors: make(map[protocol.VolumeID]*mirror)}
}

// Connect authenticates and runs the standard initialization flow observed in
// Fig. 8: Authenticate → ListVolumes → ListShares.
//
// A failed Authenticate means no session exists and Connect returns the
// error. The follow-up listing calls are ordinary per-op requests on the
// live session: a per-op failure (retryable past its budget, or permanent)
// leaves the session up, is counted in Stats.OpErrors, and the daemon
// recovers the missing state on its next sync or reconnect — treating such
// a failure as connection-fatal was exactly the client/server
// status-semantics mismatch the fault injector flushed out. What does stay
// fatal is a dead transport (no response at all) or a session-fatal status
// on the listing leg (the session was revoked underneath us): then there is
// no live session to keep and Connect reports the failure.
func (c *Client) Connect(token string) error {
	resp, err := c.exchange(protocol.Request{Op: protocol.OpAuthenticate, Token: token})
	if err != nil {
		return err
	}
	st, user, session := resp.Status, resp.User, resp.Session
	protocol.ReleaseResponse(resp)
	if st != protocol.StatusOK {
		return fmt.Errorf("client: authenticate: %w", st.Err())
	}
	c.mu.Lock()
	c.user, c.session = user, session
	c.mu.Unlock()

	resp, answered, err := c.doAnswered(protocol.Request{Op: protocol.OpListVolumes})
	if err == nil {
		c.mu.Lock()
		for _, v := range resp.Volumes {
			if _, ok := c.mirrors[v.ID]; !ok {
				c.mirrors[v.ID] = &mirror{info: v}
			}
		}
		c.mu.Unlock()
	}
	if connectionLost(resp, answered, err) {
		// No response at all (transport died) or the session is already
		// gone: there is nothing to keep, the connection really failed.
		return err
	}
	resp, answered, err = c.doAnswered(protocol.Request{Op: protocol.OpListShares})
	if err == nil {
		c.mu.Lock()
		c.shares = resp.Shares
		c.mu.Unlock()
	}
	if connectionLost(resp, answered, err) {
		return err
	}
	return nil
}

// connectionLost releases a listing leg's response and reports whether its
// failure ends the connection: no answer at all, or a session-fatal one.
func connectionLost(resp *protocol.Response, answered bool, err error) bool {
	lost := err != nil && (!answered || classifyStatus(resp.Status) == classSessionFatal)
	protocol.ReleaseResponse(resp)
	return lost
}

// User returns the authenticated user id.
func (c *Client) User() protocol.UserID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.user
}

// Session returns the storage-protocol session id.
func (c *Client) Session() protocol.SessionID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pushes exposes the transport's push channel.
func (c *Client) Pushes() <-chan *protocol.Push { return c.t.Pushes() }

// Close ends the session and the transport.
func (c *Client) Close() error {
	resp, _ := c.exchange(protocol.Request{Op: protocol.OpCloseSession})
	protocol.ReleaseResponse(resp)
	return c.t.Close()
}

// Disconnect ends the session but keeps the transport reusable: the next
// Connect starts a fresh session, as when a desktop client loses its TCP
// connection and reconnects later. Local mirrors persist, so the next
// connection synchronizes from the last known generation (§3.4.2).
func (c *Client) Disconnect() error {
	resp, err := c.exchange(protocol.Request{Op: protocol.OpCloseSession})
	protocol.ReleaseResponse(resp)
	return err
}

// reqPool recycles the request slots exchange lends to transports.
var reqPool = sync.Pool{New: func() any { return new(protocol.Request) }}

// exchange performs one request/response exchange. The transport borrows a
// pooled slot holding req until Do returns (the Transport.Do contract); the
// slot is wiped before it goes back to the pool, and nothing here reads it
// after handing it over, so a request costs the client no allocation.
//
// The response goes the other way: Do hands it over and exchange passes it
// on, uncopied, with the same rule. Whoever ends up holding it reads what it
// keeps in place and releases it once (protocol.ReleaseResponse), after which
// nothing reads it: a method returns only what outlives the release — a
// volume or share list, a download's bytes, ids it collected — never a
// listing's Deltas, whose bytes (the server's pooled copy, or the frame the
// transport read) the release gives back to wire's frame pool. On an error
// there is no response (nil).
func (c *Client) exchange(req protocol.Request) (*protocol.Response, error) {
	slot := reqPool.Get().(*protocol.Request)
	*slot = req
	resp, err := c.t.Do(slot)
	*slot = protocol.Request{}
	reqPool.Put(slot)
	if err != nil {
		protocol.ReleaseResponse(resp)
		return nil, err
	}
	return resp, nil
}

// do is doAnswered for the callers that treat every failure alike: on an
// error it has released the response and returns none.
func (c *Client) do(req protocol.Request) (*protocol.Response, error) {
	resp, _, err := c.doAnswered(req)
	if err != nil {
		protocol.ReleaseResponse(resp)
		return nil, err
	}
	return resp, nil
}

// doAnswered sends a request, retrying transient failures within the Retry
// budget, and converts non-OK statuses into errors. Retries carry their
// attempt number and accumulated backoff on the request, so the server can
// tell retried traffic apart and the simulator transport can advance the
// virtual clock instead of sleeping. Only classRetryable statuses retry: a
// permanent failure (missing node, quota) cannot be fixed by resending, and a
// session-level failure needs a reconnect, not a per-op retry.
//
// answered tells the two kinds of failure apart: true and resp holds what the
// server said, or false — the transport gave no answer — and resp is nil.
// Whatever resp is, it is the caller's to release (a refused attempt that
// is retried is released here, before the resend).
func (c *Client) doAnswered(req protocol.Request) (resp *protocol.Response, answered bool, err error) {
	var delay time.Duration
	for attempt := 0; ; attempt++ {
		req.Attempt = uint8(attempt)
		req.Delay = delay
		resp, err = c.exchange(req)
		if err != nil {
			return nil, false, err
		}
		switch classifyStatus(resp.Status) {
		case classSuccess:
			if attempt > 0 {
				c.mu.Lock()
				c.stats.RetrySuccesses++
				c.mu.Unlock()
			}
			return resp, true, nil
		case classRetryable:
			if attempt < c.Retry.Max && attempt < 255 {
				delay += c.Retry.step(attempt)
				c.mu.Lock()
				c.stats.Retries++
				c.mu.Unlock()
				protocol.ReleaseResponse(resp)
				continue
			}
		}
		c.mu.Lock()
		c.stats.OpErrors++
		c.mu.Unlock()
		return resp, true, fmt.Errorf("client: %v: %w", req.Op, resp.Status.Err())
	}
}

// ListVolumes lists the user's volumes.
func (c *Client) ListVolumes() ([]protocol.VolumeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpListVolumes})
	if err != nil {
		return nil, err
	}
	vols := resp.Volumes
	protocol.ReleaseResponse(resp)
	return vols, nil
}

// ListShares lists sharing grants involving the user.
func (c *Client) ListShares() ([]protocol.ShareInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpListShares})
	if err != nil {
		return nil, err
	}
	shares := resp.Shares
	protocol.ReleaseResponse(resp)
	c.mu.Lock()
	c.shares = shares
	c.mu.Unlock()
	return shares, nil
}

// RootVolume returns the id of the root volume mirror.
func (c *Client) RootVolume() (protocol.VolumeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, m := range c.mirrors {
		if m.info.Type == protocol.VolumeRoot {
			return id, true
		}
	}
	return 0, false
}

// Mirror returns a copy of the local replica of a volume, its nodes as a
// map built on each call.
//
// Deprecated: use Node and EachNode, which read the replica in place.
func (c *Client) Mirror(vol protocol.VolumeID) (*Mirror, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[vol]
	if !ok {
		return nil, false
	}
	nodes := make(map[protocol.NodeID]Node, len(m.rows))
	for _, r := range m.rows {
		nodes[r.id] = r.Node
	}
	return &Mirror{Info: m.info, Gen: m.gen, Nodes: nodes}, true
}

// Node returns node id of the local replica of volume vol.
func (c *Client) Node(vol protocol.VolumeID, id protocol.NodeID) (Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.mirrors[vol]; ok {
		return lookupRow(m.rows, id)
	}
	return Node{}, false
}

// EachNode calls f on every node of the local replica of volume vol, in
// ascending ID order, and reports whether the volume is mirrored. f runs
// under the client's lock, so it must not call back into the client.
func (c *Client) EachNode(vol protocol.VolumeID, f func(id protocol.NodeID, n Node)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[vol]
	if !ok {
		return false
	}
	for _, r := range m.rows {
		f(r.id, r.Node)
	}
	return true
}

// applyLocal advances a mirror with the result of the client's own mutation
// when it is contiguous; otherwise the mirror is marked dirty and the next
// Sync reconciles (another device must have written concurrently).
func (c *Client) applyLocal(vol protocol.VolumeID, node *protocol.NodeInfo, gen protocol.Generation, deleted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[vol]
	if !ok {
		return
	}
	if gen != m.gen+1 {
		m.dirty = true
		return
	}
	m.gen = gen
	if deleted {
		if i, ok := findRow(m.rows, node.ID); ok {
			m.rows = slices.Delete(m.rows, i, i+1)
		}
	} else if node.ID != 0 {
		i, found := findRow(m.rows, node.ID)
		m.rows = putRow(m.rows, i, found, node.ID, nodeOf(node))
	}
}

// applyNode applies the node a mutation answered with, releases the
// response and returns the node.
func (c *Client) applyNode(vol protocol.VolumeID, resp *protocol.Response) protocol.NodeInfo {
	node := resp.Node
	c.applyLocal(vol, &node, resp.Generation, false)
	protocol.ReleaseResponse(resp)
	return node
}

// Mkdir creates a directory.
func (c *Client) Mkdir(vol protocol.VolumeID, parent protocol.NodeID, name string) (protocol.NodeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpMakeDir, Volume: vol, Parent: parent, Name: name})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	return c.applyNode(vol, resp), nil
}

// flateSize returns the deflated size of content — the client compresses
// uploads to optimize transfers (§3.3).
func flateSize(content []byte) uint64 {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return uint64(len(content))
	}
	w.Write(content) //nolint:errcheck
	w.Close()        //nolint:errcheck
	return uint64(buf.Len())
}

// Upload stores content as name under parent, running the full §3.3/App. A
// flow: Make (touch) → PutContent with the SHA-1 dedup offer → part streaming
// unless the server already has the content. It returns the node and whether
// deduplication avoided the transfer.
func (c *Client) Upload(vol protocol.VolumeID, parent protocol.NodeID, name string, content []byte) (protocol.NodeInfo, bool, error) {
	h := protocol.HashBytes(content)
	return c.upload(vol, parent, name, h, uint64(len(content)), flateSize(content), content)
}

// UploadSized runs the upload flow without materializing content: the
// workload generator controls the hash (dedup behavior) and sizes directly.
func (c *Client) UploadSized(vol protocol.VolumeID, parent protocol.NodeID, name string, h protocol.Hash, size, compressed uint64) (protocol.NodeInfo, bool, error) {
	return c.upload(vol, parent, name, h, size, compressed, nil)
}

func (c *Client) upload(vol protocol.VolumeID, parent protocol.NodeID, name string, h protocol.Hash, size, compressed uint64, content []byte) (protocol.NodeInfo, bool, error) {
	mk, err := c.do(protocol.Request{Op: protocol.OpMakeFile, Volume: vol, Parent: parent, Name: name})
	if err != nil {
		return protocol.NodeInfo{}, false, err
	}
	node := c.applyNode(vol, mk)

	put, err := c.do(protocol.Request{
		Op: protocol.OpPutContent, Volume: vol, Node: node.ID, Name: name,
		Hash: h, Size: size, CompressedSize: compressed,
	})
	if err != nil {
		return node, false, err
	}
	if put.Reused {
		c.mu.Lock()
		c.stats.Uploads++
		c.stats.DedupHits++
		c.mu.Unlock()
		return c.applyNode(vol, put), true, nil
	}
	upload := put.Upload
	protocol.ReleaseResponse(put)

	// Stream parts. With real content the parts carry bytes; metered
	// uploads declare sizes only.
	var final *protocol.Response
	nParts := int((size + blob.PartSize - 1) / blob.PartSize)
	if nParts == 0 {
		nParts = 1
	}
	for i := 0; i < nParts; i++ {
		req := protocol.Request{
			Op: protocol.OpPutPart, Upload: upload,
			Part: uint32(i), Final: i == nParts-1,
		}
		if content != nil {
			lo := i * blob.PartSize
			hi := lo + blob.PartSize
			if hi > len(content) {
				hi = len(content)
			}
			req.Data = content[lo:hi]
		} else {
			partSize := uint64(blob.PartSize)
			if i == nParts-1 {
				partSize = size - uint64(i)*blob.PartSize
			}
			req.Size = partSize
		}
		resp, err := c.do(req)
		if err != nil {
			return node, false, err
		}
		protocol.ReleaseResponse(final) // the part before; only the last one's node counts
		final = resp
	}
	c.mu.Lock()
	c.stats.Uploads++
	c.stats.BytesUp += size
	c.mu.Unlock()
	return c.applyNode(vol, final), false, nil
}

// Download fetches a file's content. Large files are fetched in parts. With
// a metered server the returned slice is nil but sizes are accounted.
func (c *Client) Download(vol protocol.VolumeID, node protocol.NodeID) ([]byte, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpGetContent, Volume: vol, Node: node})
	if err != nil {
		return nil, err
	}
	data, parts, size, hash := resp.Data, resp.Parts, resp.Size, resp.Hash
	protocol.ReleaseResponse(resp)
	if parts > 0 {
		data = nil
		for i := uint32(0); i < parts; i++ {
			part, err := c.do(protocol.Request{Op: protocol.OpGetPart, Volume: vol, Node: node, Part: i})
			if err != nil {
				return nil, err
			}
			if data == nil && len(part.Data) > 0 {
				// One allocation for the whole body. The announced part
				// count caps it, so Size alone cannot force an allocation; a
				// metered server sends no bytes and none is made.
				data = make([]byte, 0, min(size, uint64(parts)*blob.PartSize))
			}
			data = append(data, part.Data...)
			protocol.ReleaseResponse(part)
		}
	}
	if len(data) > 0 {
		if got := protocol.HashBytes(data); got != hash {
			return nil, fmt.Errorf("client: download of node %d corrupted: hash %v != %v", node, got, hash)
		}
	}
	c.mu.Lock()
	c.stats.Downloads++
	c.stats.BytesDown += size
	c.mu.Unlock()
	return data, nil
}

// Unlink deletes a node (cascading server-side for directories).
func (c *Client) Unlink(vol protocol.VolumeID, node protocol.NodeID) error {
	resp, err := c.do(protocol.Request{Op: protocol.OpUnlink, Volume: vol, Node: node})
	if err != nil {
		return err
	}
	gen := resp.Generation
	protocol.ReleaseResponse(resp)
	// The cascade may have removed more nodes than the one named; mark the
	// mirror dirty unless this was a clean single-step advance.
	c.applyLocal(vol, &protocol.NodeInfo{ID: node}, gen, true)
	return nil
}

// Move renames/re-parents a node.
func (c *Client) Move(vol protocol.VolumeID, node, newParent protocol.NodeID, newName string) (protocol.NodeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpMove, Volume: vol, Node: node, Parent: newParent, Name: newName})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	return c.applyNode(vol, resp), nil
}

// CreateUDF creates a user-defined folder volume and mirrors it.
func (c *Client) CreateUDF(path string) (protocol.VolumeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpCreateUDF, Name: path})
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	v := resp.Volumes[0]
	protocol.ReleaseResponse(resp)
	c.mu.Lock()
	c.mirrors[v.ID] = &mirror{info: v}
	c.mu.Unlock()
	return v, nil
}

// DeleteVolume removes a volume and its mirror.
func (c *Client) DeleteVolume(vol protocol.VolumeID) error {
	resp, err := c.do(protocol.Request{Op: protocol.OpDeleteVolume, Volume: vol})
	if err != nil {
		return err
	}
	protocol.ReleaseResponse(resp)
	c.mu.Lock()
	delete(c.mirrors, vol)
	c.mu.Unlock()
	return nil
}

// CreateShare offers a volume to another user.
func (c *Client) CreateShare(vol protocol.VolumeID, to protocol.UserID, name string, readOnly bool) (protocol.ShareInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpCreateShare, Volume: vol, ToUser: to, Name: name, ReadOnly: readOnly})
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	share := resp.Shares[0]
	protocol.ReleaseResponse(resp)
	return share, nil
}

// AcceptShare accepts a received share and mirrors the shared volume.
func (c *Client) AcceptShare(id protocol.ShareID) (protocol.ShareInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpAcceptShare, Share: id})
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	share := resp.Shares[0]
	protocol.ReleaseResponse(resp)
	c.mu.Lock()
	if _, ok := c.mirrors[share.Volume]; !ok {
		c.mirrors[share.Volume] = &mirror{
			info: protocol.VolumeInfo{ID: share.Volume, Type: protocol.VolumeShared, Owner: share.SharedBy},
		}
	}
	c.mu.Unlock()
	return share, nil
}

// Sync reconciles a mirror with the server via GetDelta (falling back to a
// full rescan when the server says the delta log no longer reaches the
// mirror's generation). It returns the ids of the changed files it saw — a
// file with content that is new to the mirror or whose hash moved — in the
// order the server listed them; with AutoFetch set, their contents were
// downloaded.
func (c *Client) Sync(vol protocol.VolumeID) ([]protocol.NodeID, error) {
	c.mu.Lock()
	m, ok := c.mirrors[vol]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: volume %d not mirrored", protocol.ErrNotFound, vol)
	}
	fromGen := m.gen
	c.mu.Unlock()

	resp, err := c.do(protocol.Request{Op: protocol.OpGetDelta, Volume: vol, FromGen: fromGen})
	if err != nil {
		return nil, err
	}

	var changed []protocol.NodeID
	c.mu.Lock()
	// A rescan lists the whole volume, one entry per node in ascending
	// NodeID order: the mirror is rebuilt by appends into a slice of exactly
	// that length, and what changed is judged against the mirror it
	// replaces. A delta updates the mirror in place; what it deletes goes in
	// one pass at the end. Each entry is read in place, out of the listing's
	// bytes; a name the mirror already holds is not allocated again.
	known, rows := m.rows, m.rows
	if resp.Rescan {
		rows = make([]mirrorRow, 0, resp.Deltas.Len())
		c.stats.Rescans++
	}
	var d protocol.DeltaEntry
	deleted, at := false, 0 // at: the cursor into known
	list := resp.Deltas.Cursor()
	for i := 0; ; i++ {
		name, ok := list.Next(&d)
		if !ok {
			break
		}
		id := d.Node.ID
		if d.Deleted {
			if j, ok := findRow(rows, id); ok {
				rows[j].gone, deleted = true, true
			}
			continue
		}
		j, found := findRow(rows, id)
		var prev Node
		var existed bool
		if resp.Rescan {
			prev, existed, at = seekRow(known, id, at)
		} else if found && !rows[j].gone {
			prev, existed = rows[j].Node, true
		}
		n := nodeOf(&d.Node)
		n.Name = prev.Name // an unchanged name is not allocated again
		if n.Name != string(name) {
			n.Name = string(name)
		}
		rows = putRow(rows, j, found, id, n)
		if d.Node.Kind == protocol.KindFile && !d.Node.Hash.IsZero() &&
			(!existed || prev.Hash != d.Node.Hash) {
			if changed == nil && !(resp.Rescan && len(known) > 0) {
				// A delta names what changed and a first listing is all
				// new, so the rest of the list is a close bound; a rescan
				// over a filled mirror mostly re-reads what it holds.
				changed = make([]protocol.NodeID, 0, resp.Deltas.Len()-i)
			}
			changed = append(changed, id)
		}
	}
	if deleted {
		rows = slices.DeleteFunc(rows, func(r mirrorRow) bool { return r.gone })
	}
	m.rows = rows
	m.gen = resp.Generation
	m.dirty = false
	c.stats.SyncsRun++
	autoFetch := c.AutoFetch
	c.mu.Unlock()
	protocol.ReleaseResponse(resp)

	if autoFetch {
		for _, id := range changed {
			if _, err := c.Download(vol, id); err != nil {
				return changed, err
			}
		}
	}
	return changed, nil
}

// HandlePush reacts to one server notification the way the daemon does:
// volume changes trigger a sync, share offers are recorded. It returns the
// ids of the changed files of a triggered sync.
func (c *Client) HandlePush(p *protocol.Push) ([]protocol.NodeID, error) {
	c.mu.Lock()
	c.stats.PushesSeen++
	c.mu.Unlock()
	switch p.Event {
	case protocol.PushVolumeChanged:
		c.mu.Lock()
		m, ok := c.mirrors[p.Volume]
		behind := ok && (p.Generation > m.gen || m.dirty)
		c.mu.Unlock()
		if behind {
			return c.Sync(p.Volume)
		}
		return nil, nil
	case protocol.PushShareOffered:
		c.mu.Lock()
		c.shares = append(c.shares, p.Share)
		c.mu.Unlock()
		return nil, nil
	default:
		return nil, nil
	}
}
