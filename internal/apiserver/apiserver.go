// Package apiserver implements the U1 API server processes of §3.2/§3.4:
// they receive commands from desktop clients, authenticate them against the
// shared SSO service (with a local token cache), translate commands into DAL
// RPC calls, forward file contents to the data store, and push notifications
// to simultaneously connected clients — directly for sessions they host, and
// through the notification broker for sessions on other API servers.
//
// # Request pipeline
//
// Every one of Table 2's operations flows through the same dispatch
// pipeline. A request is wrapped in a pooled OpContext (session, user,
// virtual timestamp, cost accumulator, in-flight trace Event) and pushed
// through an ordered interceptor chain into a per-op handler table built at
// server construction:
//
//	proc-load → metrics → events → status-map → inject → durability →
//	notify → session-guard → admit → cancel → handler
//
// Handlers (one registered Handler per protocol.Op) contain only the
// operation's business logic: they issue DAL RPCs that charge their sampled
// service times to the context's cost accumulator, enrich the trace Event,
// and queue watcher notifications. Everything cross-cutting — per-process
// load counting, per-op latency/error metrics, trace-event emission, the
// uniform error→Status mapping, deterministic per-op fault injection
// (Config.Faults), notification delivery on success, and per-op-class load
// shedding under overload (Config.AdmitWatermark) — lives in one interceptor
// each and wraps every operation identically, so a new operation is one
// registration, not a new switch arm. See dispatch.go for the interceptor
// contract and the OpContext lifecycle.
//
// The server runs in two harnesses: in-process (the discrete-event simulator
// calls OpenSession/Handle directly, with virtual timestamps) and over real
// TCP (see tcp.go), both driving exactly the same pipeline.
package apiserver

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/cow"
	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/wal"
)

// Event is one completed API-level operation, the unit of the paper's
// storage/session trace records. The trace collector subscribes to these.
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
	IsUpdate bool // upload replaced existing content (§5.1 file updates)
	IsDir    bool // the operation targeted a directory (Unlink cascades)
}

// Observer receives API events.
type Observer func(Event)

// Pusher delivers unsolicited server→client notifications for one session.
type Pusher interface {
	Push(*protocol.Push)
}

// PusherFunc adapts a function to the Pusher interface.
type PusherFunc func(*protocol.Push)

// Push implements Pusher.
func (f PusherFunc) Push(p *protocol.Push) { f(p) }

// RegionRouter is the metadata tier's region-topology probe: the region
// interceptor consults it to refuse mutations whose owning metadata region is
// down before any back-end work is spent. The metadata store implements it.
type RegionRouter interface {
	// WriteUnavailable reports whether a mutation on vol would be refused
	// because its owning region is down.
	WriteUnavailable(vol protocol.VolumeID) bool
	// NumRegions returns the configured region count (1 disables routing).
	NumRegions() int
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
	// region interceptor: mutations owned by a down metadata region are
	// refused with StatusUnavailable at the API edge.
	Regions RegionRouter
	// SSO, when non-nil, is the fleet-shared SSO-tier token bucket: the
	// admit interceptor sheds Authenticate requests with StatusOverloaded
	// when the bucket is dry, closing the gap that admission's op classes
	// never covered login storms. Shared across the fleet because there is
	// one SSO tier, not one per API machine.
	SSO *faults.SSOAdmission
}

// Config parameterizes one API server machine.
type Config struct {
	// Name is the machine name used in trace lognames (e.g. "whitecurrant").
	Name string
	// Procs is the number of API processes on the machine (8–16 in
	// production); sessions are spread across them.
	Procs int
	// TokenCacheTTL bounds the per-server token cache (§3.4.1).
	TokenCacheTTL time.Duration
	// InlineData makes transfers carry real bytes (TCP mode). When false,
	// transfers are metered by size only — the simulator's mode.
	InlineData bool
	// QueueDepth bounds the notification queue on the broker.
	QueueDepth int
	// Faults is the deterministic per-op fault plan the inject interceptor
	// applies (nil or zero-value injects nothing; see faults.Plan).
	Faults *faults.Plan
	// AdmitWatermark enables per-op-class load shedding: when a process has
	// admitted this many requests over the trailing faults.AdmissionWindow,
	// further data operations are refused with StatusOverloaded (metadata at
	// 2x, session management at 4x). Zero disables shedding.
	AdmitWatermark int
	// Durability marks the metadata store as journaled: the durability
	// interceptor charges FsyncPolicy's sync cost to every successful
	// mutating operation, pricing the write-ahead log into the request path.
	Durability bool
	// FsyncPolicy is the journal sync policy whose deterministic cost the
	// durability interceptor charges; ignored unless Durability is set.
	FsyncPolicy wal.Policy
	// SyncCostScale multiplies the fsync policy's modeled sync cost — the
	// slow-disk degradation knob (a failing array syncs slower; the data
	// stays durable, the request path pays more). 0 means 1 (unscaled).
	// Ignored unless Durability is set.
	SyncCostScale float64
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
	// downloads are the stored objects being served by GetPart (TCP mode),
	// read-only; nil until the session stages its first one.
	downloads map[protocol.NodeID][]byte
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
	queue  <-chan notify.Event

	mu       sync.RWMutex
	sessions map[protocol.SessionID]*Session
	byUser   map[protocol.UserID]map[protocol.SessionID]*Session

	// observers is copy-on-write: emit iterates a lock-free snapshot, so the
	// trace collector can attach mid-traffic.
	observers cow.List[Observer]

	// handlers is the per-op dispatch table and pipeline the interceptor
	// chain wrapped around its lookup; both are built once by buildPipeline
	// and immutable afterwards. interceptorNames documents the chain order,
	// outermost first.
	handlers         []Handler
	pipeline         Handler
	interceptorNames []string

	procOps []uint64 // per-process API op counters (atomic)

	// admission is the per-process load-shedding state behind the admit
	// interceptor; nil when Config.AdmitWatermark is zero.
	admission *faults.Admission

	// regions is the metadata region-topology probe behind the region
	// interceptor; nil for single-region deployments (the common case), so
	// the interceptor is a passthrough.
	regions       RegionRouter
	regionRefused *metrics.Counter

	// Per-op instrumentation handles, indexed by protocol.Op. Resolved once
	// at construction so the request path records through plain pointers.
	opSeconds      []*metrics.Histogram
	opCount        []*metrics.Counter
	opErrors       []*metrics.Counter
	activeSessions *metrics.Gauge
	machineOps     *metrics.Counter

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
	// sync cost, and the cost itself (resolved once from the fsync policy so
	// the request path never re-derives it).
	walJournaled *metrics.Counter
	syncCost     time.Duration

	uploadsMu sync.Mutex
	uploads   map[protocol.UploadID]*pendingUpload
}

type pendingUpload struct {
	job       *metadata.UploadJob
	session   protocol.SessionID
	multipart bool
	mpID      string
	received  uint64 // bytes of the parts the multipart upload has taken
	wire      uint64 // client-declared post-compression bytes (§3.3)
	ext       string
	plainSize uint64
}

// New creates an API server and registers it on the broker.
func New(cfg Config, deps Deps) *Server {
	if cfg.Name == "" {
		cfg.Name = "api"
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 8
	}
	if cfg.TokenCacheTTL <= 0 {
		cfg.TokenCacheTTL = 8 * time.Hour
	}
	s := &Server{
		cfg:      cfg,
		deps:     deps,
		tokens:   auth.NewCache(cfg.TokenCacheTTL),
		sessions: make(map[protocol.SessionID]*Session),
		byUser:   make(map[protocol.UserID]map[protocol.SessionID]*Session),
		procOps:  make([]uint64, cfg.Procs),
		uploads:  make(map[protocol.UploadID]*pendingUpload),

		activeSessions: deps.Metrics.Gauge("api.sessions.active"),
		machineOps:     deps.Metrics.Counter("api.server." + cfg.Name + ".ops"),

		faultInjected:     deps.Metrics.Counter(metrics.FaultsPrefix + "injected"),
		faultShed:         deps.Metrics.Counter(metrics.FaultsPrefix + "shed"),
		faultSSOShed:      deps.Metrics.Counter(metrics.FaultsPrefix + "sso_shed"),
		faultRetried:      deps.Metrics.Counter(metrics.FaultsPrefix + "retried"),
		faultRetrySuccess: deps.Metrics.Counter(metrics.FaultsPrefix + "retry_succeeded"),

		walJournaled: deps.Metrics.Counter(metrics.WALPrefix + "journaled"),
	}
	if cfg.Durability {
		s.syncCost = cfg.FsyncPolicy.SyncCost()
		if cfg.SyncCostScale > 0 {
			s.syncCost = time.Duration(float64(s.syncCost) * cfg.SyncCostScale)
		}
	}
	if cfg.AdmitWatermark > 0 {
		s.admission = faults.NewAdmission(cfg.Procs, cfg.AdmitWatermark)
	}
	if deps.Regions != nil && deps.Regions.NumRegions() > 1 {
		s.regions = deps.Regions
		s.regionRefused = deps.Metrics.Counter("api.region.refused")
	}
	ops := protocol.Ops()
	s.opSeconds = make([]*metrics.Histogram, len(ops))
	s.opCount = make([]*metrics.Counter, len(ops))
	s.opErrors = make([]*metrics.Counter, len(ops))
	for _, op := range ops {
		name := metrics.APIOpPrefix + op.String()
		s.opSeconds[op] = deps.Metrics.Histogram(name + ".seconds")
		s.opCount[op] = deps.Metrics.Counter(name + ".count")
		s.opErrors[op] = deps.Metrics.Counter(name + ".errors")
	}
	if deps.Broker != nil {
		s.queue = deps.Broker.Register(cfg.Name, cfg.QueueDepth)
	}
	s.buildPipeline()
	return s
}

// record charges one completed operation to the fleet metrics: outcome
// counters always, and its simulated service time into the per-op histogram
// unless the request was preempted. Preempted requests (cancelled, shed,
// injected) did no back-end work, so admitting their zero durations would
// deflate the latency percentiles — load shedding must not fake a p99 win.
func (s *Server) record(op protocol.Op, dur time.Duration, status protocol.Status, preempted bool) {
	if int(op) >= len(s.opSeconds) {
		return
	}
	s.opCount[op].Inc()
	s.machineOps.Inc()
	if !preempted {
		s.opSeconds[op].Observe(dur.Seconds())
	}
	if status != protocol.StatusOK {
		s.opErrors[op].Inc()
	}
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

// ProcOps returns cumulative API operations per server process.
func (s *Server) ProcOps() []uint64 {
	out := make([]uint64, len(s.procOps))
	for i := range out {
		out[i] = atomic.LoadUint64(&s.procOps[i])
	}
	return out
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

func (s *Server) emit(e Event) {
	for _, o := range s.observers.Load() {
		o(e)
	}
}

// OpenSession authenticates a token and establishes a session (the
// Authenticate API call), dispatching through the same pipeline as every
// other operation. The returned response mirrors what goes on the wire and
// is handed over to the caller like Handle's; the duration covers the auth
// RPC. Accounts are provisioned lazily on first successful authentication,
// which keeps simulation setup out of the trace window.
func (s *Server) OpenSession(token string, pusher Pusher, now time.Time) (*Session, *protocol.Response, time.Duration) {
	c := s.ownOpContext(nil, protocol.Request{Op: protocol.OpAuthenticate, Token: token}, now)
	c.Pusher = pusher
	c.openSession = true
	resp := s.dispatch(c)
	sess, d := c.newSession, c.Cost.Total()
	releaseOpContext(c)
	return sess, resp, d
}

// CloseSession terminates a session through the pipeline, which emits its
// session-end event and charges the close to the session's process.
func (s *Server) CloseSession(sess *Session, now time.Time) {
	if sess == nil {
		return
	}
	c := s.ownOpContext(sess, protocol.Request{Op: protocol.OpCloseSession}, now)
	protocol.ReleaseResponse(s.dispatch(c))
	releaseOpContext(c)
}

// notifyVolume pushes a volume-change notification to every watcher session,
// local ones directly and remote ones through the broker (§3.4.2). The
// originating session is excluded: it made the change.
func (s *Server) notifyVolume(origin *Session, vol protocol.VolumeID, gen protocol.Generation) {
	watchers, err := s.deps.RPC.Store().VolumeWatchers(vol)
	if err != nil {
		return
	}
	push := protocol.Push{Event: protocol.PushVolumeChanged, Volume: vol, Generation: gen}
	for _, user := range watchers {
		s.pushLocal(user, origin.ID, push)
		if s.deps.Broker != nil {
			s.deps.Broker.Publish(notify.Event{
				Kind:           protocol.PushVolumeChanged,
				User:           user,
				Volume:         vol,
				Generation:     gen,
				Origin:         s.cfg.Name,
				ExcludeSession: origin.ID,
			})
		}
	}
}

// notifyShare pushes a share event to the grantee's sessions everywhere.
func (s *Server) notifyShare(origin *Session, kind protocol.PushEvent, share protocol.ShareInfo) {
	push := protocol.Push{Event: kind, Share: share, Volume: share.Volume}
	s.pushLocal(share.SharedTo, origin.ID, push)
	if s.deps.Broker != nil {
		s.deps.Broker.Publish(notify.Event{
			Kind:           kind,
			User:           share.SharedTo,
			Volume:         share.Volume,
			Share:          share,
			Origin:         s.cfg.Name,
			ExcludeSession: origin.ID,
		})
	}
}

// pushLocal delivers a push to this server's sessions of a user, except the
// excluded session. The push goes on the heap only once a session to deliver
// it to is found: a user with one connected device, which made the change
// itself, has none.
func (s *Server) pushLocal(user protocol.UserID, exclude protocol.SessionID, push protocol.Push) {
	s.mu.RLock()
	var targets []*Session
	for id, sess := range s.byUser[user] {
		if id != exclude {
			targets = append(targets, sess)
		}
	}
	s.mu.RUnlock()
	if len(targets) == 0 {
		return
	}
	// Deliver in ascending session order: push arrival order is observable
	// client state and must not depend on map iteration.
	slices.SortFunc(targets, func(a, b *Session) int { return cmp.Compare(a.ID, b.ID) })
	shared := new(protocol.Push)
	*shared = push
	for _, sess := range targets {
		if sess.pusher != nil {
			sess.pusher.Push(shared)
		}
	}
}

// DeliverQueued drains the broker queue, delivering events to local
// sessions. The TCP server runs this continuously in a goroutine; the
// simulator pumps it between events. It returns the number delivered.
func (s *Server) DeliverQueued() int {
	var n int
	for {
		select {
		case e, ok := <-s.queue:
			if !ok {
				return n
			}
			s.deliver(e)
			n++
		default:
			return n
		}
	}
}

// deliver pushes one broker event to the local sessions it addresses.
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
