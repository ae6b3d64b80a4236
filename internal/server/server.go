// Package server composes the full U1 back-end of Fig. 1 into one runnable
// cluster: the sharded metadata store, the RPC/DAL tier, the S3-like data
// store, the authentication service, the notification broker, and a fleet of
// API server machines behind a least-loaded gateway. The deployment defaults
// mirror the paper: 6 API machines with 8–16 processes each, a 10-shard
// metadata cluster, one broker, one auth service.
package server

import (
	"fmt"
	"net"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/faults"
	"u1/internal/gateway"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/rpc"
)

// DefaultMachines are the API server machine names. The paper's trace shows
// lognames like production-whitecurrant-23-20140128; the rest of the fleet is
// named in the same spirit.
var DefaultMachines = []string{
	"whitecurrant", "blackcurrant", "gooseberry",
	"cranberry", "elderberry", "boysenberry",
}

// Config parameterizes a cluster. The embedded metadata.Config is the
// durable tier's one declaration — shards, delta logs, journal and fsync
// policy, snapshots, sync-cost scale, regions and replication — and its
// Metrics is the cluster-wide observability registry: nil creates a fresh
// one, every tier of the Fig. 1 deployment records into it, and it is
// exposed as Cluster.Metrics.
type Config struct {
	metadata.Config
	// Machines names the API servers (default: DefaultMachines).
	Machines []string
	// ProcsPerMachine is the API process count per machine (default 12,
	// inside the paper's 8–16 band).
	ProcsPerMachine int
	// AuthFailureRate injects SSO failures (paper: auth.PaperFailureRate).
	AuthFailureRate float64
	// FaultPlan injects deterministic per-op failures on every API server
	// (nil disables; see faults.Plan for the (Seed, user, op, now) contract).
	FaultPlan *faults.Plan
	// AdmitWatermark enables per-op-class load shedding on every API server:
	// the per-process admitted-requests-per-minute watermark past which data
	// operations are refused with StatusOverloaded (0 disables).
	AdmitWatermark int
	// SSOAdmitRate enables the SSO-tier token bucket: one fleet-shared
	// bucket (there is one SSO tier, not one per machine) admitting
	// Authenticate requests at this sustained rate in requests per second of
	// virtual time — fractional rates fit the simulator's compressed scale —
	// and shedding the excess with StatusOverloaded at the API edge.
	// 0 disables (Authenticate is never shed, the pre-scenario behavior).
	SSOAdmitRate float64
	// SSOAdmitBurst is the bucket capacity (how deep a login burst is
	// absorbed before shedding starts). 0 with a nonzero rate defaults to 1.
	SSOAdmitBurst float64
	// AuthCapacity models SSO back-end overload: the sustained
	// authentication throughput in requests/sec (over auth.CapacityWindow)
	// past which the tier's goodput collapses and requests fail for everyone
	// (see auth.Config.Capacity). 0 disables.
	AuthCapacity float64
	// InlineData makes transfers carry real bytes (TCP mode); off for
	// simulation.
	InlineData bool
	// RealSleep makes RPCs take their sampled service time in wall time.
	RealSleep bool
	// Seed drives all stochastic models.
	Seed int64
}

// Cluster is a fully wired U1 back-end.
type Cluster struct {
	Store   *metadata.Store
	Blob    *blob.Store
	Auth    *auth.Service
	Broker  *notify.Broker
	RPC     *rpc.Server
	Servers []*apiserver.Server
	// Metrics aggregates the whole deployment's observability; snapshot it
	// (metrics.OpStatsOf folds the per-op latency table) to see per-op
	// latency, shard balance and traffic mix live.
	Metrics *metrics.Registry
}

// NewCluster wires a cluster from cfg. It panics when recovering a durable
// metadata store fails; deployments reopening real state use OpenCluster.
func NewCluster(cfg Config) *Cluster {
	c, err := OpenCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("server: opening cluster: %v", err))
	}
	return c
}

// Validate rejects a config whose knobs lie outside their domain or only
// mean something beside a knob that is off: combinations a cluster would
// otherwise ignore silently. Each error names the offending field. The
// durable tier's knobs are checked by the embedded metadata.Config.Validate.
func (cfg Config) Validate() error {
	switch {
	case cfg.ProcsPerMachine < 0:
		return fmt.Errorf("server: negative ProcsPerMachine %d", cfg.ProcsPerMachine)
	case cfg.AuthFailureRate < 0 || cfg.AuthFailureRate > 1:
		return fmt.Errorf("server: AuthFailureRate %v outside [0, 1]", cfg.AuthFailureRate)
	case cfg.AdmitWatermark < 0:
		return fmt.Errorf("server: negative AdmitWatermark %d", cfg.AdmitWatermark)
	case cfg.SSOAdmitRate < 0:
		return fmt.Errorf("server: negative SSOAdmitRate %v", cfg.SSOAdmitRate)
	case cfg.SSOAdmitBurst < 0:
		return fmt.Errorf("server: negative SSOAdmitBurst %v", cfg.SSOAdmitBurst)
	case cfg.AuthCapacity < 0:
		return fmt.Errorf("server: negative AuthCapacity %v", cfg.AuthCapacity)
	case cfg.SSOAdmitBurst != 0 && cfg.SSOAdmitRate == 0:
		return fmt.Errorf("server: SSOAdmitBurst %v set without SSOAdmitRate", cfg.SSOAdmitBurst)
	}
	seen := make(map[string]bool, len(cfg.Machines))
	for _, name := range cfg.Machines {
		if seen[name] {
			// A second server under one name would share the first one's
			// broker identity: Publish's origin skip would hide each from
			// the other's events.
			return fmt.Errorf("server: Machines names %q twice", name)
		}
		seen[name] = true
	}
	return cfg.Config.Validate()
}

// OpenCluster wires a cluster from cfg, surfacing metadata recovery errors
// when cfg.Durability names a directory with unreadable state, and rejecting
// a cfg that fails Validate.
func OpenCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Machines) == 0 {
		cfg.Machines = DefaultMachines
	}
	if cfg.ProcsPerMachine <= 0 {
		cfg.ProcsPerMachine = 12
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	reg := cfg.Metrics

	store, err := metadata.Open(cfg.Config)
	if err != nil {
		return nil, err
	}
	blobStore := blob.New(blob.Config{KeepData: cfg.InlineData, Metrics: reg})
	authSvc := auth.New(auth.Config{
		FailureRate: cfg.AuthFailureRate,
		Seed:        seed,
		Capacity:    cfg.AuthCapacity,
	})
	broker := notify.NewBroker()
	broker.Instrument(reg)
	rpcTier := rpc.NewServer(store, rpc.Config{
		Seed:      seed,
		RealSleep: cfg.RealSleep,
		Metrics:   reg,
	})

	c := &Cluster{
		Store:   store,
		Blob:    blobStore,
		Auth:    authSvc,
		Broker:  broker,
		RPC:     rpcTier,
		Metrics: reg,
	}
	deps := apiserver.Deps{
		RPC:      rpcTier,
		Auth:     authSvc,
		Blob:     blobStore,
		Broker:   broker,
		Transfer: blob.DefaultTransferModel(),
		Metrics:  reg,
		Regions:  store,
		SSO:      faults.NewSSOAdmission(cfg.SSOAdmitRate, cfg.SSOAdmitBurst),
	}
	for _, name := range cfg.Machines {
		srv := apiserver.New(apiserver.Config{
			Name:           name,
			Procs:          cfg.ProcsPerMachine,
			InlineData:     cfg.InlineData,
			Faults:         cfg.FaultPlan,
			AdmitWatermark: cfg.AdmitWatermark,
		}, deps)
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// Close flushes the cluster's durable state: the metadata store snapshots
// every shard and closes its journals. In-memory clusters return nil.
func (c *Cluster) Close() error {
	return c.Store.Close()
}

// LeastLoaded returns the API server with the fewest live sessions — the
// gateway's placement rule (§4). Ties break by fleet order for determinism.
func (c *Cluster) LeastLoaded() *apiserver.Server {
	best := c.Servers[0]
	bestN := best.SessionCount()
	for _, s := range c.Servers[1:] {
		if n := s.SessionCount(); n < bestN {
			best, bestN = s, n
		}
	}
	return best
}

// AddAPIObserver registers an API event observer on every server.
func (c *Cluster) AddAPIObserver(o apiserver.Observer) {
	for _, s := range c.Servers {
		s.AddObserver(o)
	}
}

// AddRPCObserver registers an RPC span observer.
func (c *Cluster) AddRPCObserver(o rpc.Observer) {
	c.RPC.AddObserver(o)
}

// PumpNotifications drains every server's broker queue once, delivering
// queued cross-server pushes. The simulator calls it from an epoch-end hook
// every 10 minutes of virtual time, while no shard runs events; the TCP
// deployment uses RunNotifier goroutines instead.
func (c *Cluster) PumpNotifications() int {
	var n int
	for _, s := range c.Servers {
		n += s.DeliverQueued()
	}
	return n
}

// DropCachedToken evicts a token from every API server's validation cache —
// the fleet-wide flush operators run alongside credential revocation, so a
// revoked token stops authenticating immediately instead of after the cache
// TTL (and independently of which servers happened to cache it).
func (c *Cluster) DropCachedToken(token string) {
	for _, s := range c.Servers {
		s.DropToken(token)
	}
}

// SweepUploadJobs runs the weekly uploadjob/multipart garbage collection.
func (c *Cluster) SweepUploadJobs(now time.Time) (jobs, blobs int) {
	jobs = c.Store.SweepUploadJobs(now)
	for _, id := range c.Blob.AbandonedUploads(now.Add(-metadata.UploadJobMaxAge)) {
		if err := c.Blob.AbortMultipartUpload(id); err == nil {
			blobs++
		}
	}
	return jobs, blobs
}

// TCPCluster is a cluster serving real sockets behind its gateway: one
// listener, whose connections the gateway places on the API servers by the
// §4 rule and hands to them in-process.
type TCPCluster struct {
	*Cluster
	Proxy    *gateway.Proxy
	GateAddr net.Addr
	ln       net.Listener
	done     chan struct{}
}

// ListenAndServe binds the gateway's listener, the deployment's one socket,
// and starts the gateway and one push notifier per API server, returning
// once the listener is bound. Addr "127.0.0.1:0" picks a free port (tests);
// a fixed addr serves for real.
func (c *Cluster) ListenAndServe(gatewayAddr string) (*TCPCluster, error) {
	ln, err := net.Listen("tcp", gatewayAddr)
	if err != nil {
		return nil, fmt.Errorf("server: listening for gateway: %w", err)
	}
	tc := &TCPCluster{Cluster: c, GateAddr: ln.Addr(), ln: ln, done: make(chan struct{})}
	backends := make(map[string]func(net.Conn), len(c.Servers))
	for _, s := range c.Servers {
		backends[s.Name()] = s.ServeConn
		go s.RunNotifier(tc.done)
	}
	tc.Proxy = gateway.NewProxy(backends)
	tc.Proxy.Balancer().Instrument(c.Metrics)
	go tc.Proxy.Serve(ln) //nolint:errcheck
	return tc, nil
}

// Close stops the notifiers and closes the gateway's listener. Connections
// already placed stay with their servers until their clients hang up.
func (tc *TCPCluster) Close() {
	select {
	case <-tc.done:
	default:
		close(tc.done)
	}
	tc.ln.Close()
}
