package client

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sync"
	"time"

	"u1/internal/blob"
	"u1/internal/protocol"
)

// Mirror is the client-side replica of one volume: the node set at a known
// generation, the synchronization metadata U1 kept under
// ~/.cache/ubuntuone (§3.3).
type Mirror struct {
	Info  protocol.VolumeInfo
	Gen   protocol.Generation
	Nodes map[protocol.NodeID]protocol.NodeInfo
	// dirty marks that a local mutation advanced the server past what the
	// mirror replayed contiguously; the next Sync reconciles.
	dirty bool
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
	mirrors map[protocol.VolumeID]*Mirror
	shares  []protocol.ShareInfo
	stats   Stats
}

// New creates a client over the given transport.
func New(t Transport) *Client {
	return &Client{t: t, mirrors: make(map[protocol.VolumeID]*Mirror)}
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
	if resp.Status != protocol.StatusOK {
		return fmt.Errorf("client: authenticate: %w", resp.Status.Err())
	}
	c.mu.Lock()
	c.user, c.session = resp.User, resp.Session
	c.mu.Unlock()

	resp, answered, err := c.doAnswered(protocol.Request{Op: protocol.OpListVolumes})
	switch {
	case err == nil:
		c.mu.Lock()
		for _, v := range resp.Volumes {
			if _, ok := c.mirrors[v.ID]; !ok {
				c.mirrors[v.ID] = &Mirror{Info: v, Nodes: make(map[protocol.NodeID]protocol.NodeInfo)}
			}
		}
		c.mu.Unlock()
	case !answered || classifyStatus(resp.Status) == classSessionFatal:
		// No response at all (transport died) or the session is already
		// gone: there is nothing to keep, the connection really failed.
		return err
	}
	resp, answered, err = c.doAnswered(protocol.Request{Op: protocol.OpListShares})
	switch {
	case err == nil:
		c.mu.Lock()
		c.shares = resp.Shares
		c.mu.Unlock()
	case !answered || classifyStatus(resp.Status) == classSessionFatal:
		return err
	}
	return nil
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
	c.exchange(protocol.Request{Op: protocol.OpCloseSession}) //nolint:errcheck
	return c.t.Close()
}

// Disconnect ends the session but keeps the transport reusable: the next
// Connect starts a fresh session, as when a desktop client loses its TCP
// connection and reconnects later. Local mirrors persist, so the next
// connection synchronizes from the last known generation (§3.4.2).
func (c *Client) Disconnect() error {
	_, err := c.exchange(protocol.Request{Op: protocol.OpCloseSession})
	return err
}

// reqPool recycles the request slots exchange lends to transports.
var reqPool = sync.Pool{New: func() any { return new(protocol.Request) }}

// exchange performs one request/response exchange. The transport borrows a
// pooled slot holding req until Do returns (the Transport.Do contract); the
// slot is wiped before it goes back to the pool, and nothing here reads it
// after handing it over, so a request costs the client no allocation.
//
// The response goes the other way: Do hands it over, and this is the one
// place the client gives it back. The envelope is copied out by value and
// released before exchange returns, so every caller works on its own copy
// and none can touch a released response; the copy's Volumes, Shares, Deltas
// and Data stay valid, the release wipes the slot and not what it pointed at.
func (c *Client) exchange(req protocol.Request) (protocol.Response, error) {
	slot := reqPool.Get().(*protocol.Request)
	*slot = req
	resp, err := c.t.Do(slot)
	*slot = protocol.Request{}
	reqPool.Put(slot)
	if err != nil {
		return protocol.Response{}, err
	}
	answer := *resp
	protocol.ReleaseResponse(resp)
	return answer, nil
}

// do is doAnswered for the callers that treat every failure alike.
func (c *Client) do(req protocol.Request) (protocol.Response, error) {
	resp, _, err := c.doAnswered(req)
	return resp, err
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
// server said, or false — the transport gave no answer — and resp is zero.
func (c *Client) doAnswered(req protocol.Request) (resp protocol.Response, answered bool, err error) {
	var delay time.Duration
	for attempt := 0; ; attempt++ {
		req.Attempt = uint8(attempt)
		req.Delay = delay
		resp, err = c.exchange(req)
		if err != nil {
			return protocol.Response{}, false, err
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
	return resp.Volumes, nil
}

// ListShares lists sharing grants involving the user.
func (c *Client) ListShares() ([]protocol.ShareInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpListShares})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.shares = resp.Shares
	c.mu.Unlock()
	return resp.Shares, nil
}

// RootVolume returns the id of the root volume mirror.
func (c *Client) RootVolume() (protocol.VolumeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, m := range c.mirrors {
		if m.Info.Type == protocol.VolumeRoot {
			return id, true
		}
	}
	return 0, false
}

// Mirror returns the local replica of a volume.
func (c *Client) Mirror(vol protocol.VolumeID) (*Mirror, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[vol]
	return m, ok
}

// applyLocal advances a mirror with the result of the client's own mutation
// when it is contiguous; otherwise the mirror is marked dirty and the next
// Sync reconciles (another device must have written concurrently).
func (c *Client) applyLocal(vol protocol.VolumeID, node protocol.NodeInfo, gen protocol.Generation, deleted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[vol]
	if !ok {
		return
	}
	if gen != m.Gen+1 {
		m.dirty = true
		return
	}
	m.Gen = gen
	if deleted {
		delete(m.Nodes, node.ID)
	} else if node.ID != 0 {
		m.Nodes[node.ID] = node
	}
}

// Mkdir creates a directory.
func (c *Client) Mkdir(vol protocol.VolumeID, parent protocol.NodeID, name string) (protocol.NodeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpMakeDir, Volume: vol, Parent: parent, Name: name})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	c.applyLocal(vol, resp.Node, resp.Generation, false)
	return resp.Node, nil
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
	c.applyLocal(vol, mk.Node, mk.Generation, false)
	node := mk.Node

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
		c.applyLocal(vol, put.Node, put.Generation, false)
		return put.Node, true, nil
	}

	// Stream parts. With real content the parts carry bytes; metered
	// uploads declare sizes only.
	var final protocol.Response
	nParts := int((size + blob.PartSize - 1) / blob.PartSize)
	if nParts == 0 {
		nParts = 1
	}
	for i := 0; i < nParts; i++ {
		req := protocol.Request{
			Op: protocol.OpPutPart, Upload: put.Upload,
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
		final = resp
	}
	c.mu.Lock()
	c.stats.Uploads++
	c.stats.BytesUp += size
	c.mu.Unlock()
	c.applyLocal(vol, final.Node, final.Generation, false)
	return final.Node, false, nil
}

// Download fetches a file's content. Large files are fetched in parts. With
// a metered server the returned slice is nil but sizes are accounted.
func (c *Client) Download(vol protocol.VolumeID, node protocol.NodeID) ([]byte, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpGetContent, Volume: vol, Node: node})
	if err != nil {
		return nil, err
	}
	data := resp.Data
	if resp.Parts > 0 {
		data = nil
		for i := uint32(0); i < resp.Parts; i++ {
			part, err := c.do(protocol.Request{Op: protocol.OpGetPart, Volume: vol, Node: node, Part: i})
			if err != nil {
				return nil, err
			}
			if data == nil && len(part.Data) > 0 {
				// One allocation for the whole body. The announced part
				// count caps it, so Size alone cannot force an allocation; a
				// metered server sends no bytes and none is made.
				data = make([]byte, 0, min(resp.Size, uint64(resp.Parts)*blob.PartSize))
			}
			data = append(data, part.Data...)
		}
	}
	if len(data) > 0 {
		if got := protocol.HashBytes(data); got != resp.Hash {
			return nil, fmt.Errorf("client: download of node %d corrupted: hash %v != %v", node, got, resp.Hash)
		}
	}
	c.mu.Lock()
	c.stats.Downloads++
	c.stats.BytesDown += resp.Size
	c.mu.Unlock()
	return data, nil
}

// Unlink deletes a node (cascading server-side for directories).
func (c *Client) Unlink(vol protocol.VolumeID, node protocol.NodeID) error {
	resp, err := c.do(protocol.Request{Op: protocol.OpUnlink, Volume: vol, Node: node})
	if err != nil {
		return err
	}
	// The cascade may have removed more nodes than the one named; mark the
	// mirror dirty unless this was a clean single-step advance.
	c.applyLocal(vol, protocol.NodeInfo{ID: node}, resp.Generation, true)
	return nil
}

// Move renames/re-parents a node.
func (c *Client) Move(vol protocol.VolumeID, node, newParent protocol.NodeID, newName string) (protocol.NodeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpMove, Volume: vol, Node: node, Parent: newParent, Name: newName})
	if err != nil {
		return protocol.NodeInfo{}, err
	}
	c.applyLocal(vol, resp.Node, resp.Generation, false)
	return resp.Node, nil
}

// CreateUDF creates a user-defined folder volume and mirrors it.
func (c *Client) CreateUDF(path string) (protocol.VolumeInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpCreateUDF, Name: path})
	if err != nil {
		return protocol.VolumeInfo{}, err
	}
	v := resp.Volumes[0]
	c.mu.Lock()
	c.mirrors[v.ID] = &Mirror{Info: v, Nodes: make(map[protocol.NodeID]protocol.NodeInfo)}
	c.mu.Unlock()
	return v, nil
}

// DeleteVolume removes a volume and its mirror.
func (c *Client) DeleteVolume(vol protocol.VolumeID) error {
	if _, err := c.do(protocol.Request{Op: protocol.OpDeleteVolume, Volume: vol}); err != nil {
		return err
	}
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
	return resp.Shares[0], nil
}

// AcceptShare accepts a received share and mirrors the shared volume.
func (c *Client) AcceptShare(id protocol.ShareID) (protocol.ShareInfo, error) {
	resp, err := c.do(protocol.Request{Op: protocol.OpAcceptShare, Share: id})
	if err != nil {
		return protocol.ShareInfo{}, err
	}
	share := resp.Shares[0]
	c.mu.Lock()
	if _, ok := c.mirrors[share.Volume]; !ok {
		c.mirrors[share.Volume] = &Mirror{
			Info:  protocol.VolumeInfo{ID: share.Volume, Type: protocol.VolumeShared, Owner: share.SharedBy},
			Nodes: make(map[protocol.NodeID]protocol.NodeInfo),
		}
	}
	c.mu.Unlock()
	return share, nil
}

// Sync reconciles a mirror with the server via GetDelta (falling back to a
// full rescan when the server says the delta log no longer reaches the
// mirror's generation). It returns the changed file nodes it saw; with
// AutoFetch set, their contents were downloaded.
func (c *Client) Sync(vol protocol.VolumeID) ([]protocol.NodeInfo, error) {
	c.mu.Lock()
	m, ok := c.mirrors[vol]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: volume %d not mirrored", protocol.ErrNotFound, vol)
	}
	fromGen := m.Gen
	c.mu.Unlock()

	resp, err := c.do(protocol.Request{Op: protocol.OpGetDelta, Volume: vol, FromGen: fromGen})
	if err != nil {
		return nil, err
	}

	var changedFiles []protocol.NodeInfo
	c.mu.Lock()
	// A rescan lists the whole volume, one entry per node: the mirror is
	// rebuilt at exactly that size, and what changed is judged against the
	// mirror it replaces.
	known, nodes := m.Nodes, m.Nodes
	if resp.Rescan {
		nodes = make(map[protocol.NodeID]protocol.NodeInfo, len(resp.Deltas))
		c.stats.Rescans++
	}
	for i, d := range resp.Deltas {
		if d.Deleted {
			delete(nodes, d.Node.ID)
			continue
		}
		prev, existed := known[d.Node.ID]
		nodes[d.Node.ID] = d.Node
		if d.Node.Kind == protocol.KindFile && !d.Node.Hash.IsZero() &&
			(!existed || prev.Hash != d.Node.Hash) {
			if changedFiles == nil && !(resp.Rescan && len(known) > 0) {
				// A delta names what changed and a first listing is all
				// new, so the rest of the list is a close bound; a rescan
				// over a filled mirror mostly re-reads what it holds.
				changedFiles = make([]protocol.NodeInfo, 0, len(resp.Deltas)-i)
			}
			changedFiles = append(changedFiles, d.Node)
		}
	}
	m.Nodes = nodes
	m.Gen = resp.Generation
	m.dirty = false
	c.stats.SyncsRun++
	autoFetch := c.AutoFetch
	c.mu.Unlock()

	if autoFetch {
		for _, n := range changedFiles {
			if _, err := c.Download(vol, n.ID); err != nil {
				return changedFiles, err
			}
		}
	}
	return changedFiles, nil
}

// HandlePush reacts to one server notification the way the daemon does:
// volume changes trigger a sync, share offers are recorded. It returns the
// changed files of a triggered sync.
func (c *Client) HandlePush(p *protocol.Push) ([]protocol.NodeInfo, error) {
	c.mu.Lock()
	c.stats.PushesSeen++
	c.mu.Unlock()
	switch p.Event {
	case protocol.PushVolumeChanged:
		c.mu.Lock()
		m, ok := c.mirrors[p.Volume]
		behind := ok && (p.Generation > m.Gen || m.dirty)
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
