// Package rpc implements the DAL tier of §3.4: the RPC database workers that
// API servers call to access the metadata store. Workers translate RPC calls
// into store queries, route them to the right shard by user id, and are the
// instrumentation point for the paper's back-end performance analysis: every
// call emits a Span carrying the RPC name, shard, worker process and service
// time (Figs. 12, 13, 14).
//
// Service times follow a calibrated model: per-class lognormal bodies with
// Pareto tails, reproducing the long-tailed distributions of Fig. 12 (7–22%
// of service times far from the median) and the class separation of Fig. 13
// (cascade RPCs more than an order of magnitude slower than reads).
package rpc

import (
	"math/rand"
	"sync/atomic"
	"time"

	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/stats"
)

// Span records one RPC against the metadata store.
type Span struct {
	RPC     protocol.RPC
	Class   protocol.RPCClass
	Shard   int
	Proc    int // RPC worker process index
	User    protocol.UserID
	Start   time.Time
	Service time.Duration
	Err     error
}

// Observer receives spans; the trace collector registers one.
type Observer func(Span)

// LatencyModel samples a service time for an RPC class.
type LatencyModel interface {
	Sample(r *rand.Rand, class protocol.RPCClass) time.Duration
}

// PaperLatency is the calibrated three-class model. Values target the medians
// and tail mass of Figs. 12–13.
type PaperLatency struct {
	read, write, cascade stats.Sampler
}

// NewPaperLatency builds the default calibrated model.
func NewPaperLatency() *PaperLatency {
	return &PaperLatency{
		// Read RPCs: median ≈ 3 ms, lockless parallel access keeps the body
		// tight; ~8% of calls land in a heavy tail.
		read: stats.ParetoTailed{
			Body:  stats.LognormalFromMedian(3e-3, 2.2),
			Tail:  stats.Pareto{Xm: 30e-3, Alpha: 1.2},
			TailP: 0.08,
		},
		// Write/update/delete: master-side work, median ≈ 12 ms, ~12% tail.
		write: stats.ParetoTailed{
			Body:  stats.LognormalFromMedian(12e-3, 2.5),
			Tail:  stats.Pareto{Xm: 100e-3, Alpha: 1.2},
			TailP: 0.12,
		},
		// Cascade: touches many rows (delete_volume, get_from_scratch);
		// median ≈ 150 ms and the fattest tail (~20%).
		cascade: stats.ParetoTailed{
			Body:  stats.LognormalFromMedian(150e-3, 2.8),
			Tail:  stats.Pareto{Xm: 1.2, Alpha: 1.3},
			TailP: 0.20,
		},
	}
}

// Sample implements LatencyModel.
func (m *PaperLatency) Sample(r *rand.Rand, class protocol.RPCClass) time.Duration {
	var s stats.Sampler
	switch class {
	case protocol.ClassCascade:
		s = m.cascade
	case protocol.ClassWrite:
		s = m.write
	default:
		s = m.read
	}
	return time.Duration(s.Sample(r) * float64(time.Second))
}

// Config parameterizes the RPC tier.
type Config struct {
	// Procs is the number of RPC worker processes. The deployment ran 8–16
	// processes on each of 6 machines; the default is 48.
	Procs int
	// Latency overrides the service-time model (nil → NewPaperLatency).
	Latency LatencyModel
	// Seed makes the latency sampling reproducible.
	Seed int64
	// RealSleep makes calls actually take their sampled service time. The
	// TCP server enables it; the simulator keeps time virtual.
	RealSleep bool
	// Metrics receives per-RPC and per-class service-time histograms plus
	// error counts (nil disables registration).
	Metrics *metrics.Registry
}

// atomicSource is a lock-free rand.Source64: a splitmix64 generator whose
// state advances by a single atomic add, so concurrent draws each consume a
// distinct, deterministic position of the stream. Seeding a worker's source
// with cfg.Seed+proc fixes that worker's sample stream regardless of how
// calls interleave — the reproducibility contract the bench harness relies
// on (same Seed + same Procs ⇒ same per-worker stream).
type atomicSource struct {
	state atomic.Uint64
}

// Uint64 implements rand.Source64.
func (s *atomicSource) Uint64() uint64 {
	return stats.Splitmix64(s.state.Add(stats.Splitmix64Gamma))
}

// Int63 implements rand.Source.
func (s *atomicSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *atomicSource) Seed(seed int64) { s.state.Store(uint64(seed)) }

// Server is the RPC tier facade over the metadata store.
type Server struct {
	store *metadata.Store
	cfg   Config

	// procRNG holds one lockless generator per worker process. The samplers
	// only draw through the source (Float64/NormFloat64 keep no state in
	// rand.Rand itself), so sharing a worker's *rand.Rand across goroutines
	// is race-free and call() never takes a lock.
	procRNG []*rand.Rand

	// observers is copy-on-write: call() iterates a lock-free snapshot, so
	// span emission never locks, and dynamic attach is safe mid-traffic (the
	// trace collector hooks in while the cluster is already serving).
	observers metrics.ObserverList[Observer]

	nextProc uint64

	// Instrumentation handles indexed by protocol.RPC / protocol.RPCClass,
	// resolved once so the hot call path records through plain pointers.
	rpcSeconds   []*metrics.Histogram
	classSeconds []*metrics.Histogram
	rpcErrors    *metrics.Counter
}

// NewServer creates the tier. Observers may be registered at any time, before
// or during traffic (AddObserver is a copy-on-write swap).
func NewServer(store *metadata.Store, cfg Config) *Server {
	if cfg.Procs <= 0 {
		cfg.Procs = 48
	}
	if cfg.Latency == nil {
		cfg.Latency = NewPaperLatency()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Server{
		store:     store,
		cfg:       cfg,
		procRNG:   make([]*rand.Rand, cfg.Procs),
		rpcErrors: cfg.Metrics.Counter(metrics.RPCErrors),
	}
	for i := range s.procRNG {
		// Scramble (seed, proc) through the mix function so nearby seeds do
		// not alias worker streams: raw seed+proc would make Seed s worker i
		// reproduce Seed s+1 worker i-1 exactly. Still a pure function of
		// (Seed, proc), so reproducibility holds.
		src := &atomicSource{}
		src.state.Store(stats.Splitmix64(uint64(seed) + uint64(i)*stats.Splitmix64Gamma))
		s.procRNG[i] = rand.New(src)
	}
	rpcs := protocol.RPCs()
	s.rpcSeconds = make([]*metrics.Histogram, len(rpcs))
	for _, op := range rpcs {
		s.rpcSeconds[op] = cfg.Metrics.Histogram(metrics.RPCSeconds(op.String()))
	}
	classes := []protocol.RPCClass{protocol.ClassRead, protocol.ClassWrite, protocol.ClassCascade}
	s.classSeconds = make([]*metrics.Histogram, len(classes))
	for _, c := range classes {
		s.classSeconds[c] = cfg.Metrics.Histogram(metrics.RPCClassSeconds(c.String()))
	}
	return s
}

// Store exposes the underlying metadata store (for provisioning paths that
// predate the trace window, e.g. account creation).
func (s *Server) Store() *metadata.Store { return s.store }

// AddObserver registers a span observer. It is safe to call while traffic is
// in flight: the observer list is copy-on-write, so concurrent call() paths
// keep iterating their immutable snapshot and pick up the new observer on
// their next span.
func (s *Server) AddObserver(o Observer) { s.observers.Add(o) }

// call wraps one store access with worker selection, latency sampling, span
// emission and optional real sleeping. The sampled service time is charged to
// the request's cost accumulator (nil discards it) instead of being returned:
// public methods no longer hand durations back for callers to thread by hand.
func (s *Server) call(op protocol.RPC, user protocol.UserID, now time.Time, cost *protocol.Cost, err error) {
	// Modulo before the int conversion: the raw uint64 tick would convert to
	// a negative int on 32-bit platforms (and after wraparound on 64-bit).
	proc := int(atomic.AddUint64(&s.nextProc, 1) % uint64(len(s.procRNG)))

	service := s.cfg.Latency.Sample(s.procRNG[proc], op.Class())
	cost.Add(service)

	span := Span{
		RPC:     op,
		Class:   op.Class(),
		Shard:   s.store.ShardFor(user),
		Proc:    proc,
		User:    user,
		Start:   now,
		Service: service,
		Err:     err,
	}
	if int(op) < len(s.rpcSeconds) {
		s.rpcSeconds[op].Observe(service.Seconds())
	}
	if int(span.Class) < len(s.classSeconds) {
		s.classSeconds[span.Class].Observe(service.Seconds())
	}
	if err != nil {
		s.rpcErrors.Inc()
	}
	for _, o := range s.observers.Load() {
		o(span)
	}
	if s.cfg.RealSleep {
		//u1:allow wallclock RealSleep mode plays simulated service time on the host clock for the TCP harness
		time.Sleep(service)
	}
}

// --- File-system management RPCs (Table 2, Fig. 12a) ---
//
// Every wrapper takes the request's cost accumulator as its last parameter
// and charges the sampled service time there; nil discards the charge.

// ListVolumes executes dal.list_volumes.
func (s *Server) ListVolumes(user protocol.UserID, now time.Time, cost *protocol.Cost) ([]protocol.VolumeInfo, error) {
	out, err := s.store.ListVolumes(user)
	s.call(protocol.RPCListVolumes, user, now, cost, err)
	return out, err
}

// ListShares executes dal.list_shares.
func (s *Server) ListShares(user protocol.UserID, now time.Time, cost *protocol.Cost) ([]protocol.ShareInfo, error) {
	out, err := s.store.ListShares(user)
	s.call(protocol.RPCListShares, user, now, cost, err)
	return out, err
}

// MakeDir executes dal.make_dir.
func (s *Server) MakeDir(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string, now time.Time, cost *protocol.Cost) (protocol.NodeInfo, error) {
	out, err := s.store.MakeDir(user, vol, parent, name)
	s.call(protocol.RPCMakeDir, user, now, cost, err)
	return out, err
}

// MakeFile executes dal.make_file.
func (s *Server) MakeFile(user protocol.UserID, vol protocol.VolumeID, parent protocol.NodeID, name string, now time.Time, cost *protocol.Cost) (protocol.NodeInfo, error) {
	out, err := s.store.MakeFile(user, vol, parent, name)
	s.call(protocol.RPCMakeFile, user, now, cost, err)
	return out, err
}

// Unlink executes dal.unlink_node.
func (s *Server) Unlink(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, now time.Time, cost *protocol.Cost) ([]protocol.NodeInfo, protocol.Generation, []protocol.Hash, error) {
	removed, gen, freed, err := s.store.Unlink(user, vol, node)
	s.call(protocol.RPCUnlinkNode, user, now, cost, err)
	return removed, gen, freed, err
}

// Move executes dal.move.
func (s *Server) Move(user protocol.UserID, vol protocol.VolumeID, node, newParent protocol.NodeID, newName string, now time.Time, cost *protocol.Cost) (protocol.NodeInfo, error) {
	out, err := s.store.Move(user, vol, node, newParent, newName)
	s.call(protocol.RPCMove, user, now, cost, err)
	return out, err
}

// CreateUDF executes dal.create_udf.
func (s *Server) CreateUDF(user protocol.UserID, path string, now time.Time, cost *protocol.Cost) (protocol.VolumeInfo, error) {
	out, err := s.store.CreateUDF(user, path)
	s.call(protocol.RPCCreateUDF, user, now, cost, err)
	return out, err
}

// DeleteVolume executes dal.delete_volume, a cascade RPC.
func (s *Server) DeleteVolume(user protocol.UserID, vol protocol.VolumeID, now time.Time, cost *protocol.Cost) ([]protocol.NodeInfo, []protocol.Hash, error) {
	removed, freed, err := s.store.DeleteVolume(user, vol)
	s.call(protocol.RPCDeleteVolume, user, now, cost, err)
	return removed, freed, err
}

// GetDelta executes dal.get_delta.
func (s *Server) GetDelta(user protocol.UserID, vol protocol.VolumeID, from protocol.Generation, now time.Time, cost *protocol.Cost) (protocol.DeltaList, protocol.Generation, error) {
	deltas, gen, err := s.store.GetDelta(user, vol, from)
	s.call(protocol.RPCGetDelta, user, now, cost, err)
	return deltas, gen, err
}

// CreateShare executes dal.create_share.
func (s *Server) CreateShare(owner protocol.UserID, vol protocol.VolumeID, to protocol.UserID, name string, readOnly bool, now time.Time, cost *protocol.Cost) (protocol.ShareInfo, error) {
	out, err := s.store.CreateShare(owner, vol, to, name, readOnly)
	s.call(protocol.RPCCreateShare, owner, now, cost, err)
	return out, err
}

// AcceptShare executes dal.accept_share.
func (s *Server) AcceptShare(user protocol.UserID, id protocol.ShareID, now time.Time, cost *protocol.Cost) (protocol.ShareInfo, error) {
	out, err := s.store.AcceptShare(user, id)
	s.call(protocol.RPCAcceptShare, user, now, cost, err)
	return out, err
}

// --- Upload management RPCs (Table 4, Fig. 12b) ---

// GetReusableContent executes dal.get_reusable_content: the dedup probe.
func (s *Server) GetReusableContent(user protocol.UserID, h protocol.Hash, now time.Time, cost *protocol.Cost) (size uint64, exists bool, err error) {
	size, exists, err = s.store.LookupContent(h)
	s.call(protocol.RPCGetReusableContent, user, now, cost, err)
	return size, exists, err
}

// MakeContent executes dal.make_content.
func (s *Server) MakeContent(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64, now time.Time, cost *protocol.Cost) (protocol.NodeInfo, *protocol.Hash, bool, error) {
	info, freed, wasUpdate, err := s.store.MakeContent(user, vol, node, h, size)
	s.call(protocol.RPCMakeContent, user, now, cost, err)
	return info, freed, wasUpdate, err
}

// MakeUploadJob executes dal.make_uploadjob.
func (s *Server) MakeUploadJob(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64, now time.Time, cost *protocol.Cost) (*metadata.UploadJob, error) {
	job, err := s.store.MakeUploadJob(user, vol, node, h, size, now)
	s.call(protocol.RPCMakeUploadJob, user, now, cost, err)
	return job, err
}

// SetUploadJobMultipartID executes dal.set_uploadjob_multipart_id.
func (s *Server) SetUploadJobMultipartID(user protocol.UserID, id protocol.UploadID, multipartID string, now time.Time, cost *protocol.Cost) error {
	err := s.store.SetUploadJobMultipartID(user, id, multipartID)
	s.call(protocol.RPCSetUploadJobMultipartID, user, now, cost, err)
	return err
}

// AddPartToUploadJob executes dal.add_part_to_uploadjob.
func (s *Server) AddPartToUploadJob(user protocol.UserID, id protocol.UploadID, partBytes uint64, now time.Time, cost *protocol.Cost) (metadata.UploadJob, error) {
	job, err := s.store.AddPartToUploadJob(user, id, partBytes, now)
	s.call(protocol.RPCAddPartToUploadJob, user, now, cost, err)
	return job, err
}

// DeleteUploadJob executes dal.delete_uploadjob.
func (s *Server) DeleteUploadJob(user protocol.UserID, id protocol.UploadID, now time.Time, cost *protocol.Cost) error {
	err := s.store.DeleteUploadJob(user, id)
	s.call(protocol.RPCDeleteUploadJob, user, now, cost, err)
	return err
}

// --- Other read-only RPCs (Fig. 12c) ---

// GetFromScratch executes dal.get_from_scratch, the cascade full-volume read.
func (s *Server) GetFromScratch(user protocol.UserID, vol protocol.VolumeID, now time.Time, cost *protocol.Cost) (protocol.DeltaList, protocol.Generation, error) {
	nodes, gen, err := s.store.GetFromScratch(user, vol)
	s.call(protocol.RPCGetFromScratch, user, now, cost, err)
	return nodes, gen, err
}

// GetNode executes dal.get_node.
func (s *Server) GetNode(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, now time.Time, cost *protocol.Cost) (protocol.NodeInfo, error) {
	out, err := s.store.GetNode(user, vol, node)
	s.call(protocol.RPCGetNode, user, now, cost, err)
	return out, err
}

// ObserveAuth emits the span for auth.get_user_id_from_token, which the
// paper's Fig. 12c groups with the metadata RPCs even though the lookup runs
// against the separate authentication service. The API server performs the
// lookup and reports its outcome here.
func (s *Server) ObserveAuth(user protocol.UserID, now time.Time, err error, cost *protocol.Cost) {
	s.call(protocol.RPCGetUserIDFromToken, user, now, cost, err)
}
