package apiserver

import (
	"fmt"
	"sync"
	"time"

	"u1/internal/protocol"
)

// OpContext is the request-scoped state threaded through the dispatch
// pipeline: the session, resolved user, virtual timestamp, the request
// itself, the cost accumulator that collects every RPC service time and
// transfer estimate charged to the request, and the in-flight trace Event.
//
// Lifecycle: the server takes a context from an internal pool when dispatch
// starts (Handle, OpenSession, CloseSession), initializes every field, runs
// it through the interceptor chain and the registered handler, reads the
// accumulated cost, and returns it to the pool. A context therefore never
// outlives its request — handlers and interceptors must not retain it (copy
// Event or individual fields instead). The same holds for Req: the request
// is borrowed from the caller, and the TCP connection loop decodes the next
// frame into the very same struct, so nothing may keep c.Req or a pointer
// into it past the call. Handlers copy the fields they store (the pending
// upload, the trace Event); a part's Data is the one thing handed on, to the
// object store, and it aliases the frame's own buffer, never the struct.
//
// Handlers communicate with the cross-cutting interceptors exclusively
// through the context: they mutate Event to enrich the trace record, charge
// Cost, queue notifications with NotifyVolume/NotifyShare, and set the
// suppress/skip flags where an operation opts out of the uniform
// bookkeeping.
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

	// Deadline, when non-zero, is the virtual instant past which the request
	// must not start: the cancel interceptor rejects it with ErrCancelled
	// before the handler runs. Zero means no deadline.
	Deadline time.Time
	// Aborted, when non-nil, is probed by the cancel interceptor just before
	// the handler runs: a true return means the client is gone (the TCP
	// harness flips it when the connection dies) and the pipeline drops the
	// work with ErrCancelled instead of executing it.
	Aborted func() bool

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
	// suppressEvent opts the request out of the uniform event emission: part
	// streaming never reports as an API event, and an upload that opens a
	// job reports only when its final part lands.
	suppressEvent bool
	// preempted marks a request rejected before its handler ran — cancelled,
	// shed by admission control, or failed by the fault injector. Preempted
	// requests still count in the per-op outcome counters and trace events
	// (operators must see refused work), but are excluded from the latency
	// histograms: they charged no cost, and zero-duration samples would let
	// load shedding fake a latency win.
	preempted bool
	// skipMetrics opts the request out of per-op metric recording (only the
	// double-close of a session, which must not skew the op counters).
	skipMetrics bool

	// pending holds notifications queued by the handler; the notify
	// interceptor delivers them only after the handler succeeds.
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

// NotifyVolume queues a volume-changed push for every watcher of vol. The
// notify interceptor delivers it (locally and through the broker) after the
// handler returns without error.
func (c *OpContext) NotifyVolume(vol protocol.VolumeID, gen protocol.Generation) {
	c.pending = append(c.pending, pendingPush{volume: vol, gen: gen})
}

// NotifyShare queues a share push for the grantee's sessions everywhere.
func (c *OpContext) NotifyShare(kind protocol.PushEvent, share protocol.ShareInfo) {
	c.pending = append(c.pending, pendingPush{share: true, kind: kind, volume: share.Volume, info: share})
}

// Handler executes one API operation against a request context. On success
// it returns the response (the pipeline stamps the correlation ID); on
// failure it returns a nil response and the error, which the status-map
// interceptor converts to the uniform wire status — handlers never build
// error responses themselves. Responses come from the protocol recycler
// (okResponse and its variants), so a handler acquires one only past its
// last failing step; whoever drops a response it was handed for another must
// release it.
type Handler func(*OpContext) (*protocol.Response, error)

// Interceptor wraps a Handler with a cross-cutting concern. The interceptor
// contract:
//
//   - An interceptor must call next exactly once, except to reject the
//     request outright (the session guard), in which case it returns an
//     error and the downstream handler never runs.
//   - Work before the next call sees the request untouched; work after it
//     sees the handler's response/error and the fully charged Cost.
//   - Interceptors run in the fixed order of buildPipeline for every
//     operation; per-op behavior differences are expressed through OpContext
//     flags, never by reordering.
//   - An interceptor that maps errors (status-map) must leave interceptors
//     outside it a non-nil response; interceptors inside it see the raw
//     handler error.
type Interceptor func(next Handler) Handler

// chain folds interceptors around h: ics[0] becomes the outermost wrapper.
func chain(h Handler, ics ...Interceptor) Handler {
	for i := len(ics) - 1; i >= 0; i-- {
		h = ics[i](h)
	}
	return h
}

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

// buildPipeline registers the per-op handler table and folds the interceptor
// chain. Called once from New; the table and chain are immutable afterwards.
// Names and functions live in one slice so the documented order can never
// drift from the executed one.
func (s *Server) buildPipeline() {
	s.registerHandlers()
	ics := []struct {
		name string
		ic   Interceptor
	}{
		{"metrics", s.metricsInterceptor},       // per-op latency histogram + outcome counters
		{"events", s.eventInterceptor},          // uniform trace-event emission to observers
		{"status-map", s.statusInterceptor},     // uniform error→Status mapping + correlation ID
		{"inject", s.injectInterceptor},         // deterministic per-op fault injection
		{"region", s.regionInterceptor},         // refuse mutations owned by a down metadata region
		{"durability", s.durabilityInterceptor}, // journal sync cost on successful mutations
		{"notify", s.notifyInterceptor},         // queued volume/share push delivery on success
		{"session-guard", s.guardInterceptor},   // admission: no session, no service
		{"admit", s.admitInterceptor},           // per-op-class load shedding under overload
		{"cancel", s.cancelInterceptor},         // drop deadline-expired / client-abandoned work
	}
	wraps := make([]Interceptor, len(ics))
	for i, x := range ics {
		s.interceptorNames = append(s.interceptorNames, x.name)
		wraps[i] = x.ic
	}
	s.pipeline = chain(s.invoke, wraps...)
}

// invoke is the innermost stage: the handler-table lookup. Unregistered or
// out-of-range operations fail with the table default, ErrBadRequest.
func (s *Server) invoke(c *OpContext) (*protocol.Response, error) {
	op := int(c.Req.Op)
	if op >= len(s.handlers) || s.handlers[op] == nil {
		return nil, protocol.ErrBadRequest
	}
	return s.handlers[op](c)
}

// dispatch runs one request context through the pipeline. The status-map
// interceptor guarantees a non-nil response on every path.
func (s *Server) dispatch(c *OpContext) *protocol.Response {
	resp, err := s.pipeline(c)
	if resp == nil {
		// Unreachable past status-map; kept as a hard backstop so a broken
		// interceptor can never make the server write a nil frame.
		resp = fail(c.Req.ID, err)
	}
	return resp
}

// guardInterceptor rejects sessionless requests before any handler state is
// touched. The one exception is Authenticate dispatched via OpenSession —
// the only entry point that can hand the created session back to the
// transport. Rejected requests leave no trace event or metric: they were
// never admitted to the pipeline proper.
func (s *Server) guardInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		if c.Session == nil && !c.openSession {
			c.suppressEvent = true
			c.skipMetrics = true
			return nil, errSessionRequired
		}
		return next(c)
	}
}

// injectInterceptor is the deterministic per-op fault injector. It sits
// between status-map and notify: inside status-map, so an injected sentinel
// maps to its uniform wire status like any handler error; outside notify and
// the handler, so a failed request does no back-end work and pushes no
// notifications. The decision is a pure function of (plan Seed, user, op,
// virtual now) — no shared RNG — which is what keeps the failure stream
// reproducible for any fixed (Seed, Workers, Plan). The interceptor also
// folds the retry accounting: requests carrying a non-zero Attempt are
// retried traffic, and a retried request that comes back clean is a retry
// success.
func (s *Server) injectInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		if c.Req.Attempt > 0 {
			s.faultRetried.Inc()
		}
		if st, ok := s.cfg.Faults.Decide(c.User, c.Req.Op, c.Now); ok {
			c.preempted = true
			s.faultInjected.Inc()
			return nil, fmt.Errorf("%w: injected fault", st.Err())
		}
		resp, err := next(c)
		if err == nil && c.Req.Attempt > 0 {
			s.faultRetrySuccess.Inc()
		}
		return resp, err
	}
}

// journalsMutation reports whether the request's op class reaches the
// metadata journal: every metadata mutation, content commits (PutContent,
// and PutPart only when it carries the final part — earlier parts touch just
// the transient uploadjob, which is not journaled), and nothing on the read
// or session paths. Authenticate is excluded even though a first login
// provisions the account: account creation is the SSO tier's slow path, not
// a client-visible write the durability invariant covers.
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

// regionInterceptor refuses mutations whose owning metadata region is down
// with StatusUnavailable before any back-end work is spent — the API edge's
// view of regional failure, mirroring what the store's own write guard would
// return from deeper in the stack. It sits inside status-map (uniform
// error→status mapping) and before durability, so refused mutations are
// never charged a journal sync. Reads pass through untouched: the store
// routes them to a surviving region's replica. A passthrough in
// single-region deployments.
func (s *Server) regionInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		if s.regions != nil && c.Req.Volume != 0 && journalsMutation(c.Req) &&
			s.regions.WriteUnavailable(c.Req.Volume) {
			c.preempted = true
			s.regionRefused.Inc()
			return nil, fmt.Errorf("%w: metadata region down", protocol.ErrUnavailable)
		}
		return next(c)
	}
}

// durabilityInterceptor is the third cross-cutting family promised by the
// pipeline redesign: it prices the write-ahead journal into the request
// path. A successful mutating operation is charged the fsync policy's
// deterministic sync cost — a pure function of the policy, never of host
// disk speed, so fixed-seed runs stay reproducible — and counted. It sits
// inside status-map (it must see the raw handler error) and after inject, so
// preempted requests, which did no back-end work, are never charged.
func (s *Server) durabilityInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		resp, err := next(c)
		if err == nil && s.cfg.Durability && journalsMutation(c.Req) {
			c.Cost.Add(s.syncCost)
			s.walJournaled.Inc()
		}
		return resp, err
	}
}

// admitInterceptor sheds load per op class when the request's API process
// crossed its admission watermark — the §5.4 response to the DDoS storms,
// automated. It runs after the session guard (unauthenticated requests are
// rejected, not shed) and before cancel and the handler, so refused work
// charges no RPC cost. Authenticate dispatched through OpenSession has no
// process yet, so the per-process classes never cover it; the SSO-tier
// token bucket (Deps.SSO) does instead — a login storm drains the
// fleet-shared bucket and the excess is shed here with StatusOverloaded
// before the authentication back-end is touched.
func (s *Server) admitInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		if c.Req.Op == protocol.OpAuthenticate && s.deps.SSO != nil {
			if !s.deps.SSO.Admit(c.Now) {
				c.preempted = true
				s.faultSSOShed.Inc()
				return nil, fmt.Errorf("%w: sso admission", protocol.ErrOverloaded)
			}
		}
		if s.admission != nil && c.hasProc {
			if !s.admission.Admit(c.Event.Proc, c.Req.Op, c.Now) {
				c.preempted = true
				s.faultShed.Inc()
				return nil, fmt.Errorf("%w: load shed", protocol.ErrOverloaded)
			}
		}
		return next(c)
	}
}

// cancelInterceptor is the last gate before the handler: a request whose
// deadline has passed or whose client has abandoned the connection is
// dropped with ErrCancelled instead of doing back-end work nobody will read.
// It sits innermost — inside status-map, so the drop maps to the uniform
// StatusCancelled wire status, and after the session guard, so admission
// rules still apply first — and runs before the handler, so cancelled
// requests charge no RPC cost.
func (s *Server) cancelInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		if !c.Deadline.IsZero() && c.Now.After(c.Deadline) {
			c.preempted = true
			return nil, fmt.Errorf("%w: deadline exceeded", protocol.ErrCancelled)
		}
		if c.Aborted != nil && c.Aborted() {
			c.preempted = true
			return nil, fmt.Errorf("%w: client disconnected", protocol.ErrCancelled)
		}
		return next(c)
	}
}

// notifyInterceptor delivers the handler's queued notifications once the
// handler has succeeded; a failed operation must never push stale
// generations to watchers.
func (s *Server) notifyInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		resp, err := next(c)
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
		}
		return resp, err
	}
}

// statusInterceptor is the uniform error→Status mapping: a handler error
// becomes a bare failure response via protocol.StatusOf, and every response
// — success or failure — is stamped with the request's correlation ID. From
// here outwards the response is always non-nil and the error is consumed.
func (s *Server) statusInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		resp, err := next(c)
		if err != nil || resp == nil {
			protocol.ReleaseResponse(resp) // replaced, so given back here
			resp = fail(c.Req.ID, err)
		} else {
			resp.ID = c.Req.ID
		}
		return resp, nil
	}
}

// eventInterceptor completes the in-flight Event with the final duration and
// status and emits it to the API observers, unless the operation suppressed
// its record (part streaming, job-opening uploads).
func (s *Server) eventInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		resp, err := next(c)
		if !c.suppressEvent {
			c.Event.Duration = c.Cost.Total()
			c.Event.Status = resp.Status
			s.emit(c.Event)
		}
		return resp, err
	}
}

// metricsInterceptor charges the completed operation to the fleet metrics:
// accumulated cost into the per-op histogram plus outcome counters.
// Preempted requests (cancelled, shed, injected) keep their outcome counters
// but stay out of the latency histogram — see OpContext.preempted.
func (s *Server) metricsInterceptor(next Handler) Handler {
	return func(c *OpContext) (*protocol.Response, error) {
		resp, err := next(c)
		if !c.skipMetrics {
			s.record(c.Req.Op, c.Cost.Total(), resp.Status, c.preempted)
		}
		return resp, err
	}
}
