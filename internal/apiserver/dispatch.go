package apiserver

import (
	"fmt"
	"sync"
	"time"

	"u1/internal/protocol"
)

// OpContext is the request-scoped state dispatch threads through one
// request: the session, resolved user, virtual timestamp, the request
// itself, the cost accumulator that collects every RPC service time and
// transfer estimate charged to the request, and the in-flight trace Event.
//
// Lifecycle: the server takes a context from an internal pool for each
// request (Handle, OpenSession, CloseSession), initializes every field, runs
// dispatch on it, reads the accumulated cost, and returns it to the pool. A
// context therefore never outlives its request — handlers must not retain it
// (copy Event or individual fields instead). The same holds for Req: the
// request is borrowed from the caller, and the TCP connection loop decodes
// the next frame into the very same struct, so nothing may keep c.Req or a
// pointer into it past the call. Handlers copy the fields they store (the
// pending upload, the trace Event); a part's Data is the one thing handed
// on, to the object store, and it aliases the frame's own buffer, never the
// struct.
//
// Handlers communicate with dispatch's shared bookkeeping exclusively
// through the context: they mutate Event to enrich the request's record,
// charge Cost and queue notifications with NotifyVolume/NotifyShare.
type OpContext struct {
	Session *Session
	User    protocol.UserID
	Now     time.Time
	Req     *protocol.Request
	Cost    protocol.Cost
	Event   Event

	// Pusher is the client push channel offered during Authenticate; unused
	// by every other operation.
	Pusher Pusher

	// aborted, when non-nil, is probed just before the handler runs: a true
	// return means the client is gone (the TCP loop flips it when the
	// connection dies) and dispatch drops the work with ErrCancelled.
	aborted func() bool

	// newSession carries the session created by the Authenticate handler
	// back to OpenSession.
	newSession *Session
	// openSession marks a context built by OpenSession, the only entry
	// point allowed to run Authenticate without a session: a raw Handle
	// call has no way to receive the created *Session, so admitting it
	// would leak an uncloseable session.
	openSession bool

	// hasProc marks Event.Proc as valid for per-process admission.
	// Set at context creation when a session exists, and by the Authenticate
	// handler once it has placed the new session on a process.
	hasProc bool
	// notRequest marks what no client issues as a request, a sessionless
	// one or a second close: answered, but never emitted.
	notRequest bool

	// pending holds notifications queued by the handler; dispatch delivers
	// them only after the handler succeeds.
	pending []pendingPush

	// own is the request of an operation the server issues on a connection's
	// behalf (OpenSession, CloseSession): it lives in the pooled context, so
	// such an operation allocates no request. Req points at it then.
	own protocol.Request
}

// pendingPush is one queued notification: a volume change or a share event.
type pendingPush struct {
	share  bool
	kind   protocol.PushEvent
	volume protocol.VolumeID
	gen    protocol.Generation
	info   protocol.ShareInfo
}

// NotifyVolume queues a volume-changed push for every watcher of vol.
// Dispatch delivers it (locally and through the broker) after the
// handler returns without error.
func (c *OpContext) NotifyVolume(vol protocol.VolumeID, gen protocol.Generation) {
	c.pending = append(c.pending, pendingPush{volume: vol, gen: gen})
}

// NotifyShare queues a share push for the grantee's sessions everywhere.
func (c *OpContext) NotifyShare(kind protocol.PushEvent, share protocol.ShareInfo) {
	c.pending = append(c.pending, pendingPush{share: true, kind: kind, volume: share.Volume, info: share})
}

// Handler executes one API operation against a request context. On success
// it returns the response (dispatch stamps the correlation ID); on failure it
// returns a nil response and the error, which dispatch converts to the
// uniform wire status — handlers never build error responses themselves.
// Responses come from the protocol recycler (okResponse and its variants), so
// a handler acquires one only past its last failing step; whoever drops a
// response it was handed for another must release it.
type Handler func(*OpContext) (*protocol.Response, error)

// opCtxPool recycles request contexts; see the OpContext lifecycle note.
var opCtxPool = sync.Pool{New: func() any { return new(OpContext) }}

// newOpContext initializes a pooled context for one request. sess may be nil
// (pre-auth requests); the session guard rejects such requests unless they
// entered through OpenSession.
func (s *Server) newOpContext(sess *Session, req *protocol.Request, now time.Time) *OpContext {
	c := opCtxPool.Get().(*OpContext)
	s.initOpContext(c, sess, req, now)
	return c
}

// ownOpContext is newOpContext for a request the server issues itself; see
// OpContext.own.
func (s *Server) ownOpContext(sess *Session, req protocol.Request, now time.Time) *OpContext {
	c := opCtxPool.Get().(*OpContext)
	c.own = req
	s.initOpContext(c, sess, &c.own, now)
	return c
}

// initOpContext resets every field of c for one request, keeping only the
// pending slice's backing array and the own request.
func (s *Server) initOpContext(c *OpContext, sess *Session, req *protocol.Request, now time.Time) {
	*c = OpContext{Session: sess, Now: now, Req: req, pending: c.pending[:0], own: c.own}
	c.Event = Event{
		Server: s.cfg.Name,
		Op:     req.Op,
		Volume: req.Volume,
		Node:   req.Node,
		Upload: req.Upload,
		Final:  req.Final,
		Start:  now,
	}
	if sess != nil {
		c.User = sess.User
		c.hasProc = true
		c.Event.Proc = sess.Proc
		c.Event.Session = sess.ID
		c.Event.User = sess.User
	}
}

// releaseOpContext returns a context to the pool. Callers must have read
// everything they need (cost total, new session) first.
func releaseOpContext(c *OpContext) {
	pending := c.pending[:0]
	*c = OpContext{pending: pending}
	opCtxPool.Put(c)
}

// journalsMutation reports whether the request's op class can reach the
// metadata journal: every metadata mutation, content commits (PutContent,
// and PutPart only when it carries the final part — earlier parts touch just
// the transient uploadjob, which is not journaled), and nothing on the read
// or session paths. Authenticate is excluded even though a first login
// provisions the account: account creation is the SSO tier's slow path, not
// a client-visible write the durability invariant covers. A PutContent
// journals only when it links reused content; one that opens an upload job
// leaves the commit to its final PutPart.
func journalsMutation(req *protocol.Request) bool {
	switch req.Op {
	case protocol.OpMakeFile, protocol.OpMakeDir, protocol.OpUnlink,
		protocol.OpMove, protocol.OpCreateUDF, protocol.OpDeleteVolume,
		protocol.OpCreateShare, protocol.OpAcceptShare, protocol.OpPutContent:
		return true
	case protocol.OpPutPart:
		return req.Final
	}
	return false
}

// dispatch runs one request through the bookkeeping every Table 2 operation
// shares. This is the one place the stage order is written down, each
// position for a reason:
//
//  1. Retried traffic (a non-zero Request.Attempt) is counted.
//  2. refusal's gates may stop the request before its handler, in order. A
//     refused request does no back-end work and charges no cost.
//     - Fault injection comes first, so an injected sentinel maps to its wire
//     status like a handler error. The decision is a pure function of (plan
//     Seed, user, op, virtual now), which keeps the failure stream
//     reproducible for any fixed (Seed, Workers, Plan).
//     - A mutation whose owning metadata region is down is refused with
//     StatusUnavailable, what the store's own write guard would answer
//     deeper in; reads pass, the store serves them from a surviving replica.
//     - The session guard: no session, no service, except Authenticate via
//     OpenSession, the one entry point that can hand the session back. Its
//     refusals leave no event or metric: they were never admitted.
//     - Admission sits past the guard, so unauthenticated requests are
//     rejected, not shed: the fleet-shared SSO bucket sheds Authenticate
//     (which has no API process yet) before the auth back-end is touched,
//     then the request's process sheds per op class past its watermark —
//     the §5.4 response to the DDoS storms, automated.
//     - The abort probe is last: no work is done for a client already gone.
//  3. The handler-table lookup; an op outside the table is ErrBadRequest.
//  4. After a successful handler only: the queued notifications are
//     delivered (a failed operation must never push stale generations), a
//     journaled mutation is charged its fsync policy's sync cost (a pure
//     function of the policy, never of the host disk), and a retried request
//     counts as a retry success.
//  5. For every answer: an error becomes a bare failure response via
//     protocol.StatusOf, releasing a response returned beside it; the answer
//     gets the correlation ID; and the request's Event, its duration, status
//     and refusal filled in, is emitted once (emit): to the observers, part
//     streaming and job-opening uploads included, then to the per-op
//     series. Only what is not a request (OpContext.notRequest) stays out.
//     What the trace keeps of part streaming is the trace's own rule
//     (trace.Collector.APIObserver).
//
// The returned response is never nil.
func (s *Server) dispatch(c *OpContext) *protocol.Response {
	req := c.Req
	if req.Attempt > 0 {
		s.faultRetried.Inc()
	}
	var resp *protocol.Response
	err := s.refusal(c)
	refused := err != nil
	if err == nil {
		if op := int(req.Op); op < len(s.handlers) && s.handlers[op] != nil {
			resp, err = s.handlers[op](c)
		} else {
			err = protocol.ErrBadRequest
		}
	}
	if err == nil {
		origin := c.Session
		if origin == nil {
			origin = c.newSession
		}
		for _, p := range c.pending {
			if p.share {
				s.notifyShare(origin, p.kind, p.info)
			} else {
				s.notifyVolume(origin, p.volume, p.gen)
			}
		}
		if s.journals && journalsMutation(req) && (req.Op != protocol.OpPutContent || resp.Reused) {
			c.Cost.Add(s.syncCost)
			s.walJournaled.Inc()
		}
		if req.Attempt > 0 {
			s.faultRetrySuccess.Inc()
		}
	}

	if err != nil || resp == nil {
		protocol.ReleaseResponse(resp) // replaced, so given back here
		resp = fail(req.ID, err)
	} else {
		resp.ID = req.ID
	}
	if !c.notRequest {
		c.Event.Duration, c.Event.Status, c.Event.refused = c.Cost.Total(), resp.Status, refused
		s.emit(c.Event)
	}
	return resp
}

// refusal returns why dispatch's gates (stage 2) refuse the request, or nil.
func (s *Server) refusal(c *OpContext) error {
	req := c.Req
	if st, ok := s.cfg.Faults.Decide(c.User, req.Op, c.Now); ok {
		s.faultInjected.Inc()
		return fmt.Errorf("%w: injected fault", st.Err())
	}
	if s.regions != nil && req.Volume != 0 && journalsMutation(req) && s.regions.WriteUnavailable(req.Volume) {
		s.regionRefused.Inc()
		return fmt.Errorf("%w: metadata region down", protocol.ErrUnavailable)
	}
	if c.Session == nil && !c.openSession {
		c.notRequest = true
		return errSessionRequired
	}
	if req.Op == protocol.OpAuthenticate && s.deps.SSO != nil && !s.deps.SSO.Admit(c.Now) {
		s.faultSSOShed.Inc()
		return fmt.Errorf("%w: sso admission", protocol.ErrOverloaded)
	}
	if s.admission != nil && c.hasProc && !s.admission.Admit(c.Event.Proc, req.Op, c.Now) {
		s.faultShed.Inc()
		return fmt.Errorf("%w: load shed", protocol.ErrOverloaded)
	}
	if c.aborted != nil && c.aborted() {
		return fmt.Errorf("%w: client disconnected", protocol.ErrCancelled)
	}
	return nil
}
