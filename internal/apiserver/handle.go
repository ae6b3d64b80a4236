package apiserver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"u1/internal/blob"
	"u1/internal/protocol"
)

// Handle dispatches one authenticated request. It returns the response and
// the simulated service time of the operation (the accumulated RPC service
// times plus data-store transfer estimates for data operations). The caller
// supplies now — wall clock on the TCP path, virtual clock in the simulator.
//
// The request is borrowed while the call lasts, and the server keeps none of
// it but a PutPart's Data: the object store adopts those bytes as the stored
// part, so the caller hands them over and must not modify them afterwards
// (the TCP loop's frames and DirectTransport's copy are nobody else's). The
// response is handed over: the server keeps no reference to it, and
// the caller may give it back once with protocol.ReleaseResponse when it has
// copied out or encoded what it needs — or never, and the collector has it.
func (s *Server) Handle(sess *Session, req *protocol.Request, now time.Time) (*protocol.Response, time.Duration) {
	return s.handle(sess, req, now, nil)
}

// handle is Handle with an abort probe: when aborted reports true just
// before the handler would run, the request is dropped with StatusCancelled
// — the TCP loop uses it to stop doing work for a disconnected client.
func (s *Server) handle(sess *Session, req *protocol.Request, now time.Time, aborted func() bool) (*protocol.Response, time.Duration) {
	c := s.newOpContext(sess, req, now)
	c.aborted = aborted
	resp := s.dispatch(c)
	d := c.Cost.Total()
	releaseOpContext(c)
	return resp, d
}

// registerHandlers fills the per-op dispatch table. Every protocol.Op has
// exactly one registered handler; requests whose op falls outside the table
// fail with ErrBadRequest in dispatch.
func (s *Server) registerHandlers() {
	s.handlers = make([]Handler, len(protocol.Ops()))
	register := func(op protocol.Op, h Handler) { s.handlers[op] = h }

	register(protocol.OpAuthenticate, s.opAuthenticate)
	register(protocol.OpListVolumes, s.opListVolumes)
	register(protocol.OpListShares, s.opListShares)
	register(protocol.OpPutContent, s.opPutContent)
	register(protocol.OpGetContent, s.opGetContent)
	register(protocol.OpMakeFile, s.opMakeNode)
	register(protocol.OpMakeDir, s.opMakeNode)
	register(protocol.OpUnlink, s.opUnlink)
	register(protocol.OpMove, s.opMove)
	register(protocol.OpCreateUDF, s.opCreateUDF)
	register(protocol.OpDeleteVolume, s.opDeleteVolume)
	register(protocol.OpGetDelta, s.opGetDelta)
	register(protocol.OpCreateShare, s.opCreateShare)
	register(protocol.OpAcceptShare, s.opAcceptShare)
	register(protocol.OpPutPart, s.opPutPart)
	register(protocol.OpGetPart, s.opGetPart)
	register(protocol.OpPing, s.opPing)
	register(protocol.OpCloseSession, s.opCloseSession)
}

// --- File-system management operations (Table 2) ---

func (s *Server) opListVolumes(c *OpContext) (*protocol.Response, error) {
	vols, err := s.deps.RPC.ListVolumes(c.User, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	resp := okResponse()
	resp.Volumes = vols
	return resp, nil
}

func (s *Server) opListShares(c *OpContext) (*protocol.Response, error) {
	shares, err := s.deps.RPC.ListShares(c.User, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	resp := okResponse()
	resp.Shares = shares
	return resp, nil
}

// opMakeNode serves both MakeFile and MakeDir: the two differ only in the
// DAL RPC they issue.
func (s *Server) opMakeNode(c *OpContext) (*protocol.Response, error) {
	var node protocol.NodeInfo
	var err error
	if c.Req.Op == protocol.OpMakeFile {
		node, err = s.deps.RPC.MakeFile(c.User, c.Req.Volume, c.Req.Parent, c.Req.Name, c.Now, &c.Cost)
	} else {
		node, err = s.deps.RPC.MakeDir(c.User, c.Req.Volume, c.Req.Parent, c.Req.Name, c.Now, &c.Cost)
	}
	c.Event.Node, c.Event.Ext = node.ID, extOf(c.Req.Name)
	if err != nil {
		return nil, err
	}
	c.NotifyVolume(c.Req.Volume, node.Generation)
	return okNode(node), nil
}

func (s *Server) opUnlink(c *OpContext) (*protocol.Response, error) {
	removed, gen, freed, err := s.deps.RPC.Unlink(c.User, c.Req.Volume, c.Req.Node, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	// Delete orphaned blobs from the data store (§3.2: "the API server
	// finishes by deleting the file also from Amazon S3").
	for _, h := range freed {
		s.deps.Blob.DeleteHash(h)
	}
	c.NotifyVolume(c.Req.Volume, gen)
	if len(removed) > 0 {
		c.Event.Size = removed[0].Size
		c.Event.Ext = extOf(removed[0].Name)
		c.Event.Hash = removed[0].Hash
		c.Event.IsDir = removed[0].Kind == protocol.KindDir
	}
	resp := okResponse()
	resp.Generation = gen
	return resp, nil
}

func (s *Server) opMove(c *OpContext) (*protocol.Response, error) {
	node, err := s.deps.RPC.Move(c.User, c.Req.Volume, c.Req.Node, c.Req.Parent, c.Req.Name, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	c.NotifyVolume(c.Req.Volume, node.Generation)
	return okNode(node), nil
}

func (s *Server) opCreateUDF(c *OpContext) (*protocol.Response, error) {
	vol, err := s.deps.RPC.CreateUDF(c.User, c.Req.Name, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	c.Event.Volume = vol.ID
	resp := okResponse()
	resp.Volumes = []protocol.VolumeInfo{vol}
	return resp, nil
}

func (s *Server) opDeleteVolume(c *OpContext) (*protocol.Response, error) {
	removed, freed, err := s.deps.RPC.DeleteVolume(c.User, c.Req.Volume, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	for _, h := range freed {
		s.deps.Blob.DeleteHash(h)
	}
	c.Event.Size = uint64(len(removed))
	return okResponse(), nil
}

// opGetDelta serves synchronization deltas, transparently falling back to
// the cascade get_from_scratch read when the client's generation fell behind
// the delta log (the RescanFromScratch flow of Fig. 8).
func (s *Server) opGetDelta(c *OpContext) (*protocol.Response, error) {
	deltas, gen, err := s.deps.RPC.GetDelta(c.User, c.Req.Volume, c.Req.FromGen, c.Now, &c.Cost)
	rescan := isTruncatedDelta(err)
	if rescan {
		deltas, gen, err = s.deps.RPC.GetFromScratch(c.User, c.Req.Volume, c.Now, &c.Cost)
	}
	if err != nil {
		return nil, err
	}
	resp := okResponse()
	resp.Deltas, resp.Generation, resp.Rescan = deltas, gen, rescan
	return resp, nil
}

func (s *Server) opCreateShare(c *OpContext) (*protocol.Response, error) {
	share, err := s.deps.RPC.CreateShare(c.User, c.Req.Volume, c.Req.ToUser, c.Req.Name, c.Req.ReadOnly, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	c.NotifyShare(protocol.PushShareOffered, share)
	return okShare(share), nil
}

func (s *Server) opAcceptShare(c *OpContext) (*protocol.Response, error) {
	share, err := s.deps.RPC.AcceptShare(c.User, c.Req.Share, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	return okShare(share), nil
}

func (s *Server) opPing(*OpContext) (*protocol.Response, error) {
	return okResponse(), nil
}

// --- Data operations (Fig. 17) ---

// opPutContent starts an upload. The client has already sent the SHA-1; the
// server first probes for reusable content (cross-user dedup, §3.3). On a
// hit the file is linked without any transfer. Otherwise an uploadjob is
// created; large contents additionally open a multipart upload at the data
// store.
func (s *Server) opPutContent(c *OpContext) (*protocol.Response, error) {
	req := c.Req
	c.Event.Hash, c.Event.Size, c.Event.Ext = req.Hash, req.Size, extOf(req.Name)

	_, exists, err := s.deps.RPC.GetReusableContent(c.User, req.Hash, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	if exists {
		node, freed, wasUpdate, err := s.deps.RPC.MakeContent(c.User, req.Volume, req.Node, req.Hash, req.Size, c.Now, &c.Cost)
		if err != nil {
			return nil, err
		}
		if freed != nil { // the update released the old content's last reference
			s.deps.Blob.DeleteHash(*freed)
		}
		c.Event.IsUpdate = wasUpdate
		c.Event.Wire = 0 // dedup hit: no bytes cross the wire
		c.NotifyVolume(req.Volume, node.Generation)
		resp := okNode(node)
		resp.Reused = true
		return resp, nil
	}

	job, err := s.deps.RPC.MakeUploadJob(c.User, req.Volume, req.Node, req.Hash, req.Size, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	up := &pendingUpload{
		volume:    job.Volume,
		node:      job.Node,
		hash:      job.Hash,
		session:   c.Session.ID,
		ext:       extOf(req.Name),
		plainSize: req.Size,
		wire:      req.CompressedSize,
	}
	if up.wire == 0 || up.wire > req.Size {
		up.wire = req.Size
	}
	if req.Size > blob.PartSize {
		up.multipart = true
		up.mpID = s.deps.Blob.CreateMultipartHash(req.Hash, c.Now)
		if err := s.deps.RPC.SetUploadJobMultipartID(c.User, job.ID, up.mpID, c.Now, &c.Cost); err != nil {
			return nil, err
		}
	}
	s.uploadsMu.Lock()
	s.uploads[job.ID] = up
	s.uploadsMu.Unlock()
	c.Event.Upload = job.ID
	resp := okResponse()
	resp.Upload = job.ID
	return resp, nil
}

// opPutPart streams one part of an upload. The final part commits the
// content: the blob is completed at the data store, the metadata entry is
// written (dal.make_content), the uploadjob is garbage-collected
// (dal.delete_uploadjob) and watchers are notified.
//
// The parts must add up to exactly the size declared in PutContent: every
// part but the final one is exactly blob.PartSize (so a content that fits
// one part sends only its final part), no part takes the running total past
// the declared size, and the final part brings it to that size. Any other
// part is refused with StatusBadRequest and ends the upload. Stored objects
// are therefore cut at PartSize, and downloads serve them part by part.
//
// The part's bytes are never copied here: they arrive in the frame the
// connection read, and the store adopts them as they are — a content of one
// part through PutHash, a multipart part through UploadPart.
func (s *Server) opPutPart(c *OpContext) (*protocol.Response, error) {
	req := c.Req

	s.uploadsMu.Lock()
	up, ok := s.uploads[req.Upload]
	s.uploadsMu.Unlock()
	if !ok || up.session != c.Session.ID {
		return nil, protocol.ErrNotFound
	}

	inline := s.cfg.InlineData && req.Data != nil
	partBytes := uint64(len(req.Data))
	if partBytes == 0 {
		partBytes = req.Size // metered mode: size only
	}
	left := up.plainSize - up.received
	fits := partBytes == left
	if !req.Final {
		fits = up.multipart && partBytes == blob.PartSize && partBytes <= left
	}
	if !fits {
		s.dropUpload(req.Upload, up)
		return nil, protocol.ErrBadRequest
	}

	if up.multipart {
		partNum := int(req.Part) + 1
		var err error
		if inline {
			err = s.deps.Blob.UploadPart(up.mpID, partNum, req.Data, c.Now)
		} else {
			err = s.deps.Blob.UploadPartSized(up.mpID, partNum, partBytes, c.Now)
		}
		if err != nil {
			s.dropUpload(req.Upload, up)
			if errors.Is(err, blob.ErrNoSuchUpload) { // the sweep freed it
				return nil, protocol.ErrNotFound
			}
			return nil, protocol.ErrBadRequest
		}
	}
	up.received += partBytes

	if _, err := s.deps.RPC.AddPartToUploadJob(c.User, req.Upload, partBytes, c.Now, &c.Cost); err != nil {
		if errors.Is(err, protocol.ErrNotFound) { // the sweep freed the job
			s.dropUpload(req.Upload, up)
		}
		return nil, err
	}
	// The S3 leg of the transfer dominates the part's service time.
	c.Cost.Add(s.deps.Transfer.Time(partBytes))

	if !req.Final {
		return okResponse(), nil
	}

	// Final part: commit.
	if up.multipart {
		if err := s.deps.Blob.CompleteMultipartUpload(up.mpID); err != nil {
			return nil, protocol.ErrUnavailable
		}
	} else {
		if inline {
			s.deps.Blob.PutHash(up.hash, req.Data)
		} else {
			s.deps.Blob.PutHashSized(up.hash, up.plainSize)
		}
	}
	node, freed, wasUpdate, err := s.deps.RPC.MakeContent(c.User, up.volume, up.node, up.hash, up.plainSize, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	if freed != nil {
		s.deps.Blob.DeleteHash(*freed)
	}
	s.deps.RPC.DeleteUploadJob(c.User, req.Upload, c.Now, &c.Cost) //nolint:errcheck
	s.uploadsMu.Lock()
	delete(s.uploads, req.Upload)
	s.uploadsMu.Unlock()

	c.NotifyVolume(up.volume, node.Generation)

	// The final part's event carries the whole upload, with the part's cost
	// (the journal's sync included).
	ev := &c.Event
	ev.Volume, ev.Node, ev.Hash = up.volume, up.node, up.hash
	ev.Size, ev.Wire, ev.Ext, ev.IsUpdate = up.plainSize, up.wire, up.ext, wasUpdate
	return okNode(node), nil
}

// dropUpload ends a refused upload: the pending state and any multipart at
// the data store go; the uploadjob row stays behind for the weekly GC, as
// after a dropped session.
func (s *Server) dropUpload(id protocol.UploadID, up *pendingUpload) {
	s.uploadsMu.Lock()
	delete(s.uploads, id)
	s.uploadsMu.Unlock()
	if up.multipart {
		s.deps.Blob.AbortMultipartUpload(up.mpID) //nolint:errcheck
	}
}

// opGetContent serves a download: get_node for the metadata, then the
// data-store read. A content of one part returns inline; a larger one stages
// its parts list and the client fetches each with GetPart. The store's parts
// are shared and read-only, so the response and the staged list are the
// stored parts themselves.
func (s *Server) opGetContent(c *OpContext) (*protocol.Response, error) {
	req := c.Req
	node, err := s.deps.RPC.GetNode(c.User, req.Volume, req.Node, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	if node.Hash.IsZero() {
		return nil, protocol.ErrNotFound
	}
	c.Event.Hash, c.Event.Size, c.Event.Wire, c.Event.Ext = node.Hash, node.Size, node.Size, extOf(node.Name)
	c.Cost.Add(s.deps.Transfer.Time(node.Size))

	// The response is built once every read that can fail has happened, so
	// no error path strands an acquired response.
	var inline []byte
	var parts uint32
	if s.cfg.InlineData {
		stored, err := s.deps.Blob.PartsHash(node.Hash)
		if err != nil {
			return nil, protocol.ErrUnavailable
		}
		if len(stored) == 1 {
			inline = stored[0]
		} else if len(stored) > 1 {
			parts = uint32(len(stored))
			sess := c.Session
			sess.mu.Lock()
			if sess.downloads == nil {
				sess.downloads = make(map[protocol.NodeID][][]byte)
			}
			sess.downloads[node.ID] = stored
			sess.mu.Unlock()
		}
	} else {
		// Metered mode: account the data-store read without materializing.
		if _, err := s.deps.Blob.HeadHash(node.Hash); err != nil {
			return nil, protocol.ErrUnavailable
		}
		if node.Size > blob.PartSize {
			parts = uint32((node.Size + blob.PartSize - 1) / blob.PartSize)
		}
	}
	resp := okResponse()
	resp.Node, resp.Hash, resp.Size = node, node.Hash, node.Size
	resp.Data, resp.Parts = inline, parts
	return resp, nil
}

// opGetPart serves one staged part of a large download (TCP mode): the
// stored part with that index, as it was uploaded.
func (s *Server) opGetPart(c *OpContext) (*protocol.Response, error) {
	req, sess := c.Req, c.Session

	sess.mu.Lock()
	parts, ok := sess.downloads[req.Node]
	sess.mu.Unlock()
	if !ok {
		// Metered mode has nothing staged: acknowledge the part so clients
		// can pace themselves identically in both modes.
		return okResponse(), nil
	}
	if req.Part >= uint32(len(parts)) {
		return nil, protocol.ErrBadRequest
	}
	if req.Part == uint32(len(parts)-1) { // final part: release the staged content
		sess.mu.Lock()
		delete(sess.downloads, req.Node)
		sess.mu.Unlock()
	}
	resp := okResponse()
	resp.Data = parts[req.Part]
	return resp, nil
}

// --- Session lifecycle operations ---

// opAuthenticate validates the token (through the per-server cache, §3.4.1),
// provisions the account lazily, places the session on an API process and
// registers it. OpenSession is the transport-facing wrapper that feeds this
// handler and hands the created session back to the connection.
func (s *Server) opAuthenticate(c *OpContext) (*protocol.Response, error) {
	if c.Session != nil {
		// One storage-protocol session per connection; re-auth on a live
		// session is a protocol violation.
		return nil, protocol.ErrBadRequest
	}

	var user protocol.UserID
	var err error
	if s.deps.Auth.Overloaded(c.Req.Token, c.Now) {
		// SSO back-end past capacity (§5.4): the request registered its load
		// and lost the goodput-collapse draw. Charged like a failed auth
		// round trip — the tier did work, it just didn't finish any.
		err = fmt.Errorf("%w: sso back-end overloaded", protocol.ErrAuthFailed)
		s.deps.RPC.ObserveAuth(0, c.Now, err, &c.Cost)
	} else if s.deps.Auth.InjectedFailure(c.Req.Token, c.Now) {
		// Transient SSO failure (§7.3): injected per authentication request,
		// as a pure function of (seed, token, now), so the failure stream is
		// identical no matter which server's cache the session hit — the
		// reproducibility the parallel generator relies on.
		err = fmt.Errorf("%w: transient validation failure", protocol.ErrAuthFailed)
		s.deps.RPC.ObserveAuth(0, c.Now, err, &c.Cost)
	} else if cached, ok := s.tokens.Get(c.Req.Token, c.Now); ok {
		user = cached
		// Cached tokens skip the shared auth service entirely; the paper
		// notes caching exists to avoid overloading it.
	} else {
		user, err = s.deps.Auth.Validate(c.Req.Token)
		s.deps.RPC.ObserveAuth(user, c.Now, err, &c.Cost)
		if err == nil {
			s.tokens.Put(c.Req.Token, user, c.Now)
		}
	}

	// Modulo before the int conversion: the raw uint64 id would convert to a
	// negative int on 32-bit platforms (and after wraparound on 64-bit).
	sessionID := protocol.SessionID(atomic.AddUint64(&nextSessionID, 1))
	proc := int(uint64(sessionID) % uint64(s.cfg.Procs))
	c.User = user
	c.hasProc = true
	c.Event.Proc, c.Event.Session, c.Event.User = proc, sessionID, user

	if err != nil {
		return nil, err
	}
	if _, err := s.deps.RPC.Store().CreateUser(user); err != nil {
		return nil, err
	}

	sess := &Session{
		ID:      sessionID,
		User:    user,
		Proc:    proc,
		Started: c.Now,
		pusher:  c.Pusher,
	}
	s.mu.Lock()
	s.sessions[sess.ID] = sess
	// IDs are allocated before s.mu is taken, so a later ID may be
	// registered first: insert in place, not at the end.
	userSessions := s.byUser[user]
	at, _ := slices.BinarySearchFunc(userSessions, sess.ID, bySessionID)
	s.byUser[user] = slices.Insert(userSessions, at, sess)
	s.mu.Unlock()

	s.activeSessions.Inc()
	c.newSession = sess
	resp := okResponse()
	resp.Session, resp.User = sess.ID, user
	return resp, nil
}

// bySessionID orders a user's sessions for Server.byUser.
func bySessionID(sess *Session, id protocol.SessionID) int { return cmp.Compare(sess.ID, id) }

// opCloseSession terminates the request's session and abandons its in-flight
// uploads (the uploadjob rows stay behind for the weekly GC, as in
// production). A double close is served idempotently but is no request, so
// repeated closes cannot skew the gauge, the op counters or the trace.
func (s *Server) opCloseSession(c *OpContext) (*protocol.Response, error) {
	sess := c.Session

	s.mu.Lock()
	_, present := s.sessions[sess.ID]
	delete(s.sessions, sess.ID)
	userSessions := s.byUser[sess.User]
	if at, ok := slices.BinarySearchFunc(userSessions, sess.ID, bySessionID); ok {
		if userSessions = slices.Delete(userSessions, at, at+1); len(userSessions) == 0 {
			delete(s.byUser, sess.User)
		} else {
			s.byUser[sess.User] = userSessions
		}
	}
	s.mu.Unlock()

	s.uploadsMu.Lock()
	for id, up := range s.uploads {
		if up.session == sess.ID {
			delete(s.uploads, id)
		}
	}
	s.uploadsMu.Unlock()

	c.notRequest = !present
	if present {
		s.activeSessions.Dec()
	}
	return okResponse(), nil
}
