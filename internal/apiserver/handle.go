package apiserver

import (
	"fmt"
	"sync/atomic"
	"time"

	"u1/internal/blob"
	"u1/internal/protocol"
)

// Handle dispatches one authenticated request through the pipeline. It
// returns the response and the simulated service time of the operation (the
// accumulated RPC service times plus data-store transfer estimates for data
// operations). The caller supplies now — wall clock on the TCP path, virtual
// clock in the simulator.
//
// The request is borrowed while the call lasts (the server keeps none of
// it). The response is handed over: the server keeps no reference to it, and
// the caller may give it back once with protocol.ReleaseResponse when it has
// copied out or encoded what it needs — or never, and the collector has it.
func (s *Server) Handle(sess *Session, req *protocol.Request, now time.Time) (*protocol.Response, time.Duration) {
	return s.HandleWithCancel(sess, req, now, time.Time{}, nil)
}

// HandleWithCancel is Handle with cancellation: a non-zero deadline already
// in the past, or an aborted probe returning true, makes the cancel
// interceptor drop the request with StatusCancelled before the handler runs
// — the TCP harness uses the probe to stop doing work for disconnected
// clients mid-pipeline.
func (s *Server) HandleWithCancel(sess *Session, req *protocol.Request, now time.Time, deadline time.Time, aborted func() bool) (*protocol.Response, time.Duration) {
	c := s.newOpContext(sess, req, now)
	c.Deadline = deadline
	c.Aborted = aborted
	resp := s.dispatch(c)
	d := c.Cost.Total()
	releaseOpContext(c)
	return resp, d
}

// registerHandlers fills the per-op dispatch table. Every protocol.Op has
// exactly one registered handler; requests whose op falls outside the table
// fail with the ErrBadRequest default in invoke.
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
		node, _, wasUpdate, err := s.deps.RPC.MakeContent(c.User, req.Volume, req.Node, req.Hash, req.Size, c.Now, &c.Cost)
		if err != nil {
			return nil, err
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
		job:       job,
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
	// The trace records transfers at upload granularity: this request only
	// opened the job, so the completed-upload event is emitted by the final
	// PutPart instead.
	c.suppressEvent = true
	resp := okResponse()
	resp.Upload = job.ID
	return resp, nil
}

// opPutPart streams one part of an upload. The final part commits the
// content: the blob is completed at the data store, the metadata entry is
// written (dal.make_content), the uploadjob is garbage-collected
// (dal.delete_uploadjob) and watchers are notified.
//
// The size declared in PutContent bounds what the server accepts: a part that
// takes the running total past it, or a non-final part of a content that fits
// one part, is refused with StatusBadRequest and ends the upload. The part's
// bytes are never copied here: a content of one part goes to the store
// straight from the decoded request (PutObject makes the only copy), and a
// multipart part is handed over to the store as it is.
func (s *Server) opPutPart(c *OpContext) (*protocol.Response, error) {
	// Part streaming never reports as a separate API event — the per-part
	// load still shows up as RPC spans.
	c.suppressEvent = true
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
	if partBytes > up.plainSize-up.received || (!up.multipart && !req.Final) {
		s.dropUpload(req.Upload, up)
		return nil, protocol.ErrBadRequest
	}

	if up.multipart {
		partNum := int(req.Part) + 1
		var err error
		if inline {
			err = s.deps.Blob.UploadPart(up.mpID, partNum, req.Data)
		} else {
			err = s.deps.Blob.UploadPartSized(up.mpID, partNum, partBytes)
		}
		if err != nil {
			return nil, protocol.ErrBadRequest
		}
		up.received += partBytes
	}

	if _, err := s.deps.RPC.AddPartToUploadJob(c.User, req.Upload, partBytes, c.Now, &c.Cost); err != nil {
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
			s.deps.Blob.PutHash(up.job.Hash, req.Data)
		} else {
			s.deps.Blob.PutHashSized(up.job.Hash, up.plainSize)
		}
	}
	node, _, wasUpdate, err := s.deps.RPC.MakeContent(c.User, up.job.Volume, up.job.Node, up.job.Hash, up.plainSize, c.Now, &c.Cost)
	if err != nil {
		return nil, err
	}
	s.deps.RPC.DeleteUploadJob(c.User, req.Upload, c.Now, &c.Cost) //nolint:errcheck
	s.uploadsMu.Lock()
	delete(s.uploads, req.Upload)
	s.uploadsMu.Unlock()

	c.NotifyVolume(up.job.Volume, node.Generation)

	// Emit the completed-upload event carrying the whole transfer, in place
	// of the suppressed per-part record.
	s.emit(Event{
		Server:   s.cfg.Name,
		Proc:     c.Session.Proc,
		Session:  c.Session.ID,
		User:     c.User,
		Op:       protocol.OpPutContent,
		Volume:   up.job.Volume,
		Node:     up.job.Node,
		Hash:     up.job.Hash,
		Size:     up.plainSize,
		Wire:     up.wire,
		Ext:      up.ext,
		Start:    c.Now,
		Duration: c.Cost.Total(),
		Status:   protocol.StatusOK,
		IsUpdate: wasUpdate,
	})
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
// data-store read. Small contents return inline; larger ones are staged and
// fetched with GetPart. The store's bytes are shared and read-only, so the
// response and the staged parts are slices of the one stored object.
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
		data, err := s.deps.Blob.GetHash(node.Hash)
		if err != nil {
			return nil, protocol.ErrUnavailable
		}
		if len(data) <= blob.PartSize {
			inline = data
		} else {
			parts = uint32((len(data) + blob.PartSize - 1) / blob.PartSize)
			sess := c.Session
			sess.mu.Lock()
			if sess.downloads == nil {
				sess.downloads = make(map[protocol.NodeID][]byte)
			}
			sess.downloads[node.ID] = data
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

// opGetPart serves one staged part of a large download (TCP mode).
func (s *Server) opGetPart(c *OpContext) (*protocol.Response, error) {
	// Like PutPart, part fetches never report as API events.
	c.suppressEvent = true
	req, sess := c.Req, c.Session

	sess.mu.Lock()
	data, ok := sess.downloads[req.Node]
	sess.mu.Unlock()
	if !ok {
		// Metered mode has nothing staged: acknowledge the part so clients
		// can pace themselves identically in both modes.
		return okResponse(), nil
	}
	lo := int(req.Part) * blob.PartSize
	if lo >= len(data) {
		return nil, protocol.ErrBadRequest
	}
	hi := lo + blob.PartSize
	if hi > len(data) {
		hi = len(data)
	}
	if hi == len(data) { // final part: release the staged content
		sess.mu.Lock()
		delete(sess.downloads, req.Node)
		sess.mu.Unlock()
	}
	resp := okResponse()
	resp.Data = data[lo:hi]
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
	userSessions, ok := s.byUser[user]
	if !ok {
		userSessions = make(map[protocol.SessionID]*Session)
		s.byUser[user] = userSessions
	}
	userSessions[sess.ID] = sess
	s.mu.Unlock()

	s.activeSessions.Inc()
	c.newSession = sess
	resp := okResponse()
	resp.Session, resp.User = sess.ID, user
	return resp, nil
}

// opCloseSession terminates the request's session and abandons its in-flight
// uploads (the uploadjob rows stay behind for the weekly GC, as in
// production). A double close is served idempotently but skips the metrics,
// so repeated closes cannot skew the gauge or the op counters.
func (s *Server) opCloseSession(c *OpContext) (*protocol.Response, error) {
	sess := c.Session

	s.mu.Lock()
	_, present := s.sessions[sess.ID]
	delete(s.sessions, sess.ID)
	if userSessions, ok := s.byUser[sess.User]; ok {
		delete(userSessions, sess.ID)
		if len(userSessions) == 0 {
			delete(s.byUser, sess.User)
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

	if present {
		s.activeSessions.Dec()
	} else {
		c.skipMetrics = true
	}
	return okResponse(), nil
}
