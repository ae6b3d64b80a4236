// Package apiserver implements the U1 API server processes of §3.2/§3.4:
// they receive commands from desktop clients, authenticate them against the
// shared SSO service (with a local token cache), translate commands into DAL
// RPC calls, forward file contents to the data store, and push notifications
// to simultaneously connected clients — directly for sessions they host, and
// through the notification broker for sessions on other API servers.
//
// # Request path
//
// Every one of Table 2's operations takes the same path. A request is
// wrapped in a pooled OpContext (session, user, virtual timestamp, cost
// accumulator, in-flight trace Event) and run by one function, dispatch,
// which applies the bookkeeping all operations share around a per-op handler
// table built at server construction: deterministic fault injection
// (Config.Faults), the down-region refusal, the session guard, SSO and
// per-process load shedding (Deps.SSO, Config.AdmitWatermark) and the abort
// probe before the handler; notification delivery and the journal sync
// charge after a successful one; then the uniform error→Status mapping and
// one emission of every answer's Event: to the observers, then to the
// per-op latency/error series.
// dispatch.go writes the order down once, as code, with the reason for each
// position on dispatch itself.
//
// Handlers (one registered Handler per protocol.Op) contain only the
// operation's business logic: they issue DAL RPCs that charge their sampled
// service times to the context's cost accumulator, enrich the trace Event,
// and queue watcher notifications, so a new operation is one registration,
// not a new switch arm.
//
// The server runs in two harnesses: in-process (the discrete-event simulator
// calls OpenSession/Handle directly, with virtual timestamps) and over real
// TCP (see tcp.go), both driving exactly the same dispatch.
package apiserver

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
)

// Event is one answered API request, Op its own op; part streaming is one
// too. The trace collector folds events to the paper's storage/session
// records, at upload granularity.
type Event struct {
	Server   string // API server (machine) name, e.g. "whitecurrant"
	Proc     int    // server process number on the machine
	Session  protocol.SessionID
	User     protocol.UserID
	Op       protocol.Op
	Volume   protocol.VolumeID
	Node     protocol.NodeID
	Hash     protocol.Hash
	Size     uint64 // plain (uncompressed) content size for transfers
	Wire     uint64 // bytes on the wire (post-compression) for transfers
	Ext      string // lower-cased file extension, the only name residue kept
	Start    time.Time
	Duration time.Duration
	Status   protocol.Status
	IsUpdate bool              // upload replaced existing content (§5.1 file updates)
	IsDir    bool              // the operation targeted a directory (Unlink cascades)
	Upload   protocol.UploadID // the upload a PutPart feeds or a PutContent opened
	Final    bool              // a PutPart with its upload's last part: on success, the upload's fields
	refused  bool              // stopped by dispatch's gates: no back-end work, no latency sample
}

// Observer receives every answered request's Event, before the series count it.
type Observer func(Event)

// Pusher delivers unsolicited server→client notifications for one session.
// Push runs in the publishing server's goroutine, so it must not block.
type Pusher interface {
	Push(*protocol.Push)
}

// RegionRouter is the metadata tier's region-topology probe: dispatch
// consults it to refuse mutations whose owning metadata region is
// down before any back-end work is spent. The metadata store implements it.
type RegionRouter interface {
	// WriteUnavailable reports whether a mutation on vol would be refused
	// because its owning region is down.
	WriteUnavailable(vol protocol.VolumeID) bool
	// Regions returns the configured region count (1 disables routing).
	Regions() int
}

// Deps are the shared back-end services an API server talks to.
type Deps struct {
	RPC      *rpc.Server
	Auth     *auth.Service
	Blob     *blob.Store
	Broker   *notify.Broker
	Transfer blob.TransferModel
	// Metrics is the fleet-shared registry; per-operation latency and error
	// counts aggregate across all API servers wired to the same registry.
	// nil keeps the server fully functional but unobserved.
	Metrics *metrics.Registry
	// Regions, when non-nil and reporting more than one region, enables the
	// down-region refusal: mutations owned by a down metadata region are
	// refused with StatusUnavailable at the API edge.
	Regions RegionRouter
	// SSO, when non-nil, is the fleet-shared SSO-tier token bucket: dispatch
	// sheds Authenticate requests with StatusOverloaded when the bucket is
	// dry, closing the gap that admission's op classes never covered login
	// storms. Shared across the fleet because there is
	// one SSO tier, not one per API machine.
	SSO *faults.SSOAdmission
}

// Config parameterizes one API server machine. The durable tier is not
// configured here: whether mutations pay a journal sync, and how much, is
// read from the metadata store behind Deps.RPC (metadata.Store.SyncCost).
type Config struct {
	// Name is the machine name used in trace lognames (e.g. "whitecurrant").
	Name string
	// Procs is the number of API processes on the machine (8–16 in
	// production); sessions are spread across them.
	Procs int
	// InlineData makes transfers carry real bytes (TCP mode). When false,
	// transfers are metered by size only — the simulator's mode.
	InlineData bool
	// Faults is the deterministic per-op fault plan dispatch applies (nil or
	// zero-value injects nothing; see faults.Plan).
	Faults *faults.Plan
	// AdmitWatermark enables per-op-class load shedding: when a process has
	// admitted this many requests over the trailing faults.AdmissionWindow,
	// further data operations are refused with StatusOverloaded (metadata at
	// 2x, session management at 4x). Zero disables shedding.
	AdmitWatermark int
}

// Session is one storage-protocol session: one desktop client connection
// pinned to this server for its lifetime (§3.1.1).
type Session struct {
	ID      protocol.SessionID
	User    protocol.UserID
	Proc    int
	Started time.Time

	pusher Pusher

	mu sync.Mutex
	// downloads are the parts of the stored objects being served by GetPart
	// (TCP mode), read-only; nil until the session stages its first one.
	downloads map[protocol.NodeID][][]byte
}

// nextSessionID allocates globally unique session ids across all API servers
// in the process, as the production back-end did.
var nextSessionID uint64

// ResetSessionIDs rewinds the process-global session-id allocator to zero.
// Session ids feed process placement (id mod procs), so two otherwise
// identical serial runs in one process diverge wherever per-process state
// (admission windows, proc op counts) matters unless the allocator is
// rewound between them. Only harnesses that need reproducible back-to-back
// runs — the scenario runner, determinism tests — may call it, and only
// with no traffic in flight anywhere in the process.
func ResetSessionIDs() { atomic.StoreUint64(&nextSessionID, 0) }

// Server is one API server machine.
type Server struct {
	cfg  Config
	deps Deps

	tokens *auth.Cache

	mu       sync.RWMutex
	sessions map[protocol.SessionID]*Session
	// byUser holds each user's sessions in ascending session-ID order, the
	// order pushes are delivered in.
	byUser map[protocol.UserID][]*Session

	// observers is copy-on-write: emit iterates a lock-free snapshot, so the
	// trace collector can attach mid-traffic.
	observers metrics.ObserverList[Observer]

	// handlers is the per-op dispatch table, built once by registerHandlers
	// and immutable afterwards.
	handlers []Handler

	// admission is the per-process load-shedding state; nil when
	// Config.AdmitWatermark is zero.
	admission *faults.Admission

	// regions is the metadata region-topology probe behind the down-region
	// refusal; nil for single-region deployments (the common case).
	regions       RegionRouter
	regionRefused *metrics.Counter

	// Per-op instrumentation handles, indexed by protocol.Op. Resolved once
	// at construction so the request path records through plain pointers.
	ops            []opSeries
	activeSessions *metrics.Gauge
	machineOps     *metrics.Counter
	pushDropped    *metrics.Counter // pushes a slow TCP connection discarded

	// Fault accounting for the bench report's faults section: injected and
	// shed requests (server decisions), SSO-bucket sheds, retried requests
	// and retry successes (client attempts observed server-side via
	// Request.Attempt).
	faultInjected     *metrics.Counter
	faultShed         *metrics.Counter
	faultSSOShed      *metrics.Counter
	faultRetried      *metrics.Counter
	faultRetrySuccess *metrics.Counter

	// Durability accounting: successful mutations charged with the journal
	// sync cost, and the cost itself, both read once from the metadata store
	// (metadata.Store.SyncCost) so the request path never re-derives them and
	// a server cannot believe its store durable when it is not.
	walJournaled *metrics.Counter
	syncCost     time.Duration
	journals     bool

	uploadsMu sync.Mutex
	uploads   map[protocol.UploadID]*pendingUpload
}

// opSeries are one op's api.op.<Op>.* series.
type opSeries struct {
	seconds       *metrics.Histogram
	count, errors *metrics.Counter
}

// pendingUpload is an upload in flight on this server: what its final part
// commits, the uploadjob's volume, node and hash, kept inline beside the
// streaming state.
type pendingUpload struct {
	volume    protocol.VolumeID
	node      protocol.NodeID
	hash      protocol.Hash
	session   protocol.SessionID
	multipart bool
	mpID      string
	received  uint64 // bytes of the parts the upload has taken
	wire      uint64 // client-declared post-compression bytes (§3.3)
	ext       string
	plainSize uint64
}

// tokenCacheTTL bounds how long this server's token cache (§3.4.1) trusts
// a validated token.
const tokenCacheTTL = 8 * time.Hour

// New creates an API server and subscribes it to the broker.
func New(cfg Config, deps Deps) *Server {
	if cfg.Name == "" {
		cfg.Name = "api"
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 8
	}
	s := &Server{
		cfg:      cfg,
		deps:     deps,
		tokens:   auth.NewCache(tokenCacheTTL),
		sessions: make(map[protocol.SessionID]*Session),
		byUser:   make(map[protocol.UserID][]*Session),
		uploads:  make(map[protocol.UploadID]*pendingUpload),

		activeSessions: deps.Metrics.Gauge(metrics.APISessionsActive),
		machineOps:     deps.Metrics.Counter(metrics.APIServerOps(cfg.Name)),
		pushDropped:    deps.Metrics.Counter(metrics.NotifyDropped),

		faultInjected:     deps.Metrics.Counter(metrics.FaultsInjected),
		faultShed:         deps.Metrics.Counter(metrics.FaultsShed),
		faultSSOShed:      deps.Metrics.Counter(metrics.FaultsSSOShed),
		faultRetried:      deps.Metrics.Counter(metrics.FaultsRetried),
		faultRetrySuccess: deps.Metrics.Counter(metrics.FaultsRetrySucceeded),

		walJournaled: deps.Metrics.Counter(metrics.WALJournaled),
	}
	s.syncCost, s.journals = deps.RPC.Store().SyncCost()
	if cfg.AdmitWatermark > 0 {
		s.admission = faults.NewAdmission(cfg.Procs, cfg.AdmitWatermark)
	}
	if deps.Regions != nil && deps.Regions.Regions() > 1 {
		s.regions = deps.Regions
		s.regionRefused = deps.Metrics.Counter(metrics.APIRegionRefused)
	}
	for _, op := range protocol.Ops() {
		series := metrics.APIOp(op.String())
		s.ops = append(s.ops, opSeries{deps.Metrics.Histogram(series.Seconds), deps.Metrics.Counter(series.Count), deps.Metrics.Counter(series.Errors)})
	}
	if deps.Broker != nil {
		deps.Broker.Subscribe(cfg.Name, s.deliver)
	}
	s.registerHandlers()
	return s
}

// Name returns the server's machine name.
func (s *Server) Name() string { return s.cfg.Name }

// DropToken evicts a token from this server's validation cache. Operators
// call it fleet-wide when revoking credentials (§5.4): without the flush, a
// revoked token would keep authenticating on servers with a warm cache for
// up to the cache TTL.
func (s *Server) DropToken(token string) { s.tokens.Drop(token) }

// AddObserver registers an API event observer. It is safe to call while
// traffic is in flight: the observer list is copy-on-write, so concurrent
// emits keep iterating their immutable snapshot and pick up the new observer
// on their next event.
func (s *Server) AddObserver(o Observer) { s.observers.Add(o) }

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// emit hands one answered request to the observers, then to the per-op
// series: counters always, latency unless refused, so load shedding cannot
// fake a p99 win with zero durations.
func (s *Server) emit(e Event) {
	for _, o := range s.observers.Load() {
		o(e)
	}
	if int(e.Op) >= len(s.ops) {
		return
	}
	series := &s.ops[e.Op]
	series.count.Inc()
	s.machineOps.Inc()
	if !e.refused {
		series.seconds.Observe(e.Duration.Seconds())
	}
	if e.Status != protocol.StatusOK {
		series.errors.Inc()
	}
}

// OpenSession authenticates a token and establishes a session (the
// Authenticate API call), dispatching it like every other operation. The
// returned response mirrors what goes on the wire and is handed over to the
// caller like Handle's; the duration covers the auth RPC. Accounts are
// provisioned lazily on first successful authentication, which keeps
// simulation setup out of the trace window.
func (s *Server) OpenSession(token string, pusher Pusher, now time.Time) (*Session, *protocol.Response, time.Duration) {
	c := s.ownOpContext(nil, protocol.Request{Op: protocol.OpAuthenticate, Token: token}, now)
	c.Pusher = pusher
	c.openSession = true
	resp := s.dispatch(c)
	sess, d := c.newSession, c.Cost.Total()
	releaseOpContext(c)
	return sess, resp, d
}

// CloseSession terminates a session through dispatch, which emits its
// session-end event and charges the close to the session's process.
func (s *Server) CloseSession(sess *Session, now time.Time) {
	if sess == nil {
		return
	}
	c := s.ownOpContext(sess, protocol.Request{Op: protocol.OpCloseSession}, now)
	protocol.ReleaseResponse(s.dispatch(c))
	releaseOpContext(c)
}

// notifyVolume pushes a volume-change notification to every watcher session
// (§3.4.2).
func (s *Server) notifyVolume(origin *Session, vol protocol.VolumeID, gen protocol.Generation) {
	watchers, err := s.deps.RPC.Store().VolumeWatchers(vol)
	if err != nil {
		return
	}
	for _, user := range watchers {
		s.fanOut(origin, user, protocol.Push{Event: protocol.PushVolumeChanged, Volume: vol, Generation: gen})
	}
}

// notifyShare pushes a share event to the grantee's sessions everywhere.
func (s *Server) notifyShare(origin *Session, kind protocol.PushEvent, share protocol.ShareInfo) {
	s.fanOut(origin, share.SharedTo, protocol.Push{Event: kind, Share: share, Volume: share.Volume})
}

// fanOut pushes to a user's sessions, local ones directly and remote ones
// through the broker. The originating session is excluded: it made the
// change.
func (s *Server) fanOut(origin *Session, user protocol.UserID, push protocol.Push) {
	s.pushLocal(user, origin.ID, push)
	if s.deps.Broker != nil {
		s.deps.Broker.Publish(notify.Event{
			Kind:           push.Event,
			User:           user,
			Volume:         push.Volume,
			Generation:     push.Generation,
			Share:          push.Share,
			Origin:         s.cfg.Name,
			ExcludeSession: origin.ID,
		})
	}
}

// pushLocal delivers a push to this server's sessions of a user, except the
// excluded session, in ascending session order: push arrival order is
// observable client state. The push goes on the heap only once a session to
// deliver it to is found: a user with one connected device, which made the
// change itself, has none.
func (s *Server) pushLocal(user protocol.UserID, exclude protocol.SessionID, push protocol.Push) {
	s.mu.RLock()
	var targets []*Session
	for _, sess := range s.byUser[user] {
		if sess.ID != exclude {
			targets = append(targets, sess)
		}
	}
	s.mu.RUnlock()
	if len(targets) == 0 {
		return
	}
	shared := new(protocol.Push)
	*shared = push
	for _, sess := range targets {
		if sess.pusher != nil {
			sess.pusher.Push(shared)
		}
	}
}

// deliver pushes one broker event to the local sessions it addresses. It
// runs in the publisher's dispatch, past its handler, so under no lock.
func (s *Server) deliver(e notify.Event) {
	s.pushLocal(e.User, e.ExcludeSession, protocol.Push{
		Event:      e.Kind,
		Volume:     e.Volume,
		Generation: e.Generation,
		Share:      e.Share,
	})
}

// extOf extracts the lower-cased file extension of a client-declared name;
// the rest of the name is discarded (the trace is anonymized, §4).
func extOf(name string) string {
	e := strings.ToLower(strings.TrimPrefix(path.Ext(name), "."))
	if len(e) > 10 { // not a real extension, just a dotted name
		return ""
	}
	return e
}

// errSessionRequired guards ops issued without authentication.
var errSessionRequired = fmt.Errorf("%w: no session", protocol.ErrAuthFailed)

// okResponse acquires a success response for a handler to fill in. Every
// response the server builds comes from the protocol recycler; whoever
// Handle hands it to may give it back (see protocol.ReleaseResponse).
func okResponse() *protocol.Response {
	resp := protocol.AcquireResponse()
	resp.Status = protocol.StatusOK
	return resp
}

// okNode is okResponse for the operations that answer with the node they
// wrote and the volume generation the write produced.
func okNode(node protocol.NodeInfo) *protocol.Response {
	resp := okResponse()
	resp.Node, resp.Generation = node, node.Generation
	return resp
}

// okShare is okResponse for the operations that answer with one share.
func okShare(share protocol.ShareInfo) *protocol.Response {
	resp := okResponse()
	resp.Shares = []protocol.ShareInfo{share}
	return resp
}

// fail acquires an error response.
func fail(id uint64, err error) *protocol.Response {
	resp := protocol.AcquireResponse()
	resp.ID, resp.Status = id, protocol.StatusOf(err)
	return resp
}

// isTruncatedDelta reports the delta-log truncation condition.
func isTruncatedDelta(err error) bool {
	return errors.Is(err, metadata.ErrDeltaTruncated)
}
