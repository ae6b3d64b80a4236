// Package gateway implements the system gateway of §3.2: the visible
// endpoint users connect to (HAProxy in the U1 deployment). It provides two
// pieces: a Balancer implementing the placement rule documented in §4 — "a
// session starts in the least loaded machine and lives in the same node until
// it finishes" — and a TCP Proxy that applies the rule to real connections.
//
// The balancer scales the way HAProxy-style front-ends do: its state is S
// independently locked shard heaps. With S = 1 placement is the exact
// global least-loaded rule (one min-heap, deterministic (load, name)
// tie-break). With S > 1, Acquire samples two distinct shards from a
// lock-free splitmix64 source and takes the less-loaded of the two shard
// roots — the power-of-two-choices result that keeps the maximum load within
// a constant factor of the global minimum while placement decisions on
// different shards proceed in parallel instead of serializing on one mutex.
package gateway

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"u1/internal/dist"
	"u1/internal/metrics"
)

// ErrNoBackends is returned when no backend is registered.
var ErrNoBackends = errors.New("gateway: no backends registered")

// Lease is one placed session: the backend it lives on and the balancer
// shard that owns the backend's heap slot. Release returns the session to
// the owning shard without re-hashing or searching.
type Lease struct {
	Backend string
	shard   int
}

// balancerMetrics holds the gateway's registered handles: session placement
// volume, the live session gauge, and the cost of each routing decision.
type balancerMetrics struct {
	placed       *metrics.Counter
	activeConns  *metrics.Gauge
	placeSeconds *metrics.Histogram
	reg          *metrics.Registry
}

// backendSlot is one backend's entry in its shard's min-heap. pos tracks the
// slot's index in the heap array so Release can sift from the middle without
// searching.
type backendSlot struct {
	name   string
	load   int
	pos    int
	placed *metrics.Counter // per-backend placement counter (nil-safe handle)
}

// balancerShard is one independently locked heap of backends, ordered by
// (load, name) so the root is always the shard's least-loaded backend.
type balancerShard struct {
	mu     sync.Mutex
	heap   []*backendSlot
	byName map[string]*backendSlot
}

func (s *balancerShard) less(i, j int) bool {
	return rootLess(s.heap[i], s.heap[j])
}

func (s *balancerShard) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].pos = i
	s.heap[j].pos = j
}

func (s *balancerShard) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *balancerShard) siftDown(i int) {
	n := len(s.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.less(left, smallest) {
			smallest = left
		}
		if right < n && s.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s.swap(i, smallest)
		i = smallest
	}
}

// Balancer assigns sessions to backends and tracks active session counts. It
// is safe for concurrent use; see the package comment for the sharding and
// power-of-two-choices placement model.
type Balancer struct {
	shards []*balancerShard
	// rng is the lock-free splitmix64 state behind shard sampling (the PR 2
	// idiom: one atomic add per draw, no lock on the placement path).
	rng atomic.Uint64
	// m holds the metric handles behind an atomic pointer so Instrument can
	// attach a registry while placements are in flight (the PR 3 dynamic
	// mid-traffic attach pattern) without a lock on the placement path.
	m atomic.Pointer[balancerMetrics]
}

// NewBalancer creates a single-shard balancer over the given backend names:
// the exact deterministic least-loaded rule of §4.
func NewBalancer(backends ...string) *Balancer {
	return NewShardedBalancer(1, backends...)
}

// NewShardedBalancer creates a balancer with the given shard count (min 1).
// Backends are assigned to shards by a stable hash of their name, so the
// shard layout is independent of registration order.
func NewShardedBalancer(shards int, backends ...string) *Balancer {
	if shards < 1 {
		shards = 1
	}
	b := &Balancer{shards: make([]*balancerShard, shards)}
	for i := range b.shards {
		b.shards[i] = &balancerShard{byName: make(map[string]*backendSlot)}
	}
	b.Instrument(nil)
	for _, name := range backends {
		b.AddBackend(name)
	}
	return b
}

// shardOf maps a backend name to its owning shard: FNV over the name,
// scrambled through the splitmix64 mix so shard counts with small factors
// still spread evenly.
func (b *Balancer) shardOf(name string) int {
	if len(b.shards) == 1 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, name) //nolint:errcheck
	return int(dist.Splitmix64(h.Sum64()) % uint64(len(b.shards)))
}

// Instrument registers the balancer's placement metrics on reg. Safe to
// call while traffic is in flight (placements read the handles through an
// atomic pointer); a nil registry leaves the balancer unobserved. Decisions
// concurrent with the swap may record against the old registry.
func (b *Balancer) Instrument(reg *metrics.Registry) {
	b.m.Store(&balancerMetrics{
		placed:       reg.Counter(metrics.GatewaySessionsPlaced),
		activeConns:  reg.Gauge(metrics.GatewaySessionsActive),
		placeSeconds: reg.Histogram(metrics.GatewayPlaceSeconds),
		reg:          reg,
	})
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.byName {
			s.placed = reg.Counter(metrics.GatewayBackendPlaced(s.name))
		}
		sh.mu.Unlock()
	}
}

// AddBackend registers a backend (API server process) with zero load on its
// owning shard.
func (b *Balancer) AddBackend(name string) {
	sh := b.shards[b.shardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byName[name]; ok {
		return
	}
	s := &backendSlot{
		name:   name,
		pos:    len(sh.heap),
		placed: b.m.Load().reg.Counter(metrics.GatewayBackendPlaced(name)),
	}
	sh.byName[name] = s
	sh.heap = append(sh.heap, s)
	sh.siftUp(s.pos)
}

// acquireFrom takes the root of shard idx. Caller holds the shard lock.
func (b *Balancer) acquireFrom(idx int) Lease {
	sh := b.shards[idx]
	s := sh.heap[0]
	s.load++
	sh.siftDown(0)
	s.placed.Inc()
	return Lease{Backend: s.name, shard: idx}
}

// pickTwo draws two distinct shard indices from the lock-free source.
func (b *Balancer) pickTwo() (int, int) {
	n := len(b.shards)
	r := dist.Splitmix64(b.rng.Add(dist.Splitmix64Gamma))
	i := int(r % uint64(n))
	j := int((r >> 32) % uint64(n))
	if j == i {
		j = (j + 1) % n
	}
	return i, j
}

// rootLess is the one placement comparator — (load, name), so ties break
// deterministically — used both inside each shard's heap and between shard
// roots in the two-choice comparison (callers hold the shard locks involved).
func rootLess(a, b *backendSlot) bool {
	return a.load < b.load || (a.load == b.load && a.name < b.name)
}

// Acquire picks a backend, increments its session count and returns the
// lease. With one shard the choice is the exact least-loaded backend (ties
// broken deterministically by name, so tests are stable); with several it is
// the less-loaded of two randomly sampled shard roots.
func (b *Balancer) Acquire() (Lease, error) {
	took := metrics.StartStopwatch()
	var lease Lease
	if len(b.shards) == 1 {
		sh := b.shards[0]
		sh.mu.Lock()
		if len(sh.heap) == 0 {
			sh.mu.Unlock()
			return Lease{}, ErrNoBackends
		}
		lease = b.acquireFrom(0)
		sh.mu.Unlock()
	} else {
		var ok bool
		lease, ok = b.acquireTwoChoices()
		if !ok {
			return Lease{}, ErrNoBackends
		}
	}
	m := b.m.Load()
	m.placed.Inc()
	m.activeConns.Inc()
	took.Observe(m.placeSeconds)
	return lease, nil
}

// acquireTwoChoices implements power-of-two-choices across shards: sample
// two distinct shards, lock both in index order (no deadlock), take the
// less-loaded root. If both samples are empty (name-hash imbalance), fall
// back to a linear probe for any non-empty shard.
func (b *Balancer) acquireTwoChoices() (Lease, bool) {
	i, j := b.pickTwo()
	if i > j {
		i, j = j, i
	}
	if lease, ok := b.tryPair(i, j); ok {
		return lease, true
	}
	for k := range b.shards {
		sh := b.shards[k]
		sh.mu.Lock()
		if len(sh.heap) > 0 {
			lease := b.acquireFrom(k)
			sh.mu.Unlock()
			return lease, true
		}
		sh.mu.Unlock()
	}
	return Lease{}, false
}

// tryPair locks shards i < j (the callers' pickTwo contract: distinct,
// ascending — ascending is what makes the double lock deadlock-free) and
// takes the less-loaded of their roots.
func (b *Balancer) tryPair(i, j int) (Lease, bool) {
	shi, shj := b.shards[i], b.shards[j]
	shi.mu.Lock()
	shj.mu.Lock()
	defer func() {
		shj.mu.Unlock()
		shi.mu.Unlock()
	}()
	iOK, jOK := len(shi.heap) > 0, len(shj.heap) > 0
	switch {
	case iOK && jOK:
		if rootLess(shj.heap[0], shi.heap[0]) {
			return b.acquireFrom(j), true
		}
		return b.acquireFrom(i), true
	case iOK:
		return b.acquireFrom(i), true
	case jOK:
		return b.acquireFrom(j), true
	}
	return Lease{}, false
}

// Release ends the leased session on its owning shard.
func (b *Balancer) Release(l Lease) {
	if l.Backend == "" {
		return
	}
	sh := b.shards[l.shard]
	sh.mu.Lock()
	if s, ok := sh.byName[l.Backend]; ok && s.load > 0 {
		s.load--
		sh.siftUp(s.pos)
		sh.mu.Unlock()
		b.m.Load().activeConns.Dec()
		return
	}
	sh.mu.Unlock()
}

// Proxy is a TCP pass-through applying the Balancer's placement to real
// connections: each accepted client connection is pinned to one backend
// address for its lifetime.
type Proxy struct {
	balancer *Balancer
	backends map[string]string // name → dial address
}

// NewShardedProxy creates a proxy whose balancer spreads the named backends
// over the given number of shards (power-of-two-choices placement).
func NewShardedProxy(shards int, backends map[string]string) *Proxy {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	// Sorted so the balancer's shard assignment (name order decides which
	// shard each backend heap lands in) is reproducible across runs.
	sort.Strings(names)
	return &Proxy{
		balancer: NewShardedBalancer(shards, names...),
		backends: backends,
	}
}

// Balancer exposes the underlying balancer for inspection.
func (p *Proxy) Balancer() *Balancer { return p.balancer }

// Serve accepts connections on ln until it is closed. Each connection is
// placed by the balancer and copied bidirectionally.
func (p *Proxy) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("gateway: accept: %w", err)
		}
		go p.handle(conn)
	}
}

func (p *Proxy) handle(client net.Conn) {
	defer client.Close()
	lease, err := p.balancer.Acquire()
	if err != nil {
		return
	}
	defer p.balancer.Release(lease)
	backend, err := net.Dial("tcp", p.backends[lease.Backend])
	if err != nil {
		return
	}
	defer backend.Close()

	done := make(chan struct{}, 2)
	go func() {
		io.Copy(backend, client)
		// Half-close towards the backend so it observes EOF.
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		io.Copy(client, backend)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}
