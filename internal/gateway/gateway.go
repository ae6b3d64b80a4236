// Package gateway implements the system gateway of §3.2: the visible
// endpoint users connect to (HAProxy in the U1 deployment). It provides two
// pieces: a Balancer implementing the placement rule documented in §4 — "a
// session starts in the least loaded machine and lives in the same node until
// it finishes" — and a TCP Proxy that applies the rule to real connections.
//
// The balancer is one mutex over one min-heap of backends ordered by (load,
// name): the root is the exact least-loaded machine, ties broken by name so
// placement is deterministic. The deployment's fleet is the paper's six
// machines, so one heap lock is all placement needs.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"u1/internal/metrics"
)

// ErrNoBackends is returned when no backend is registered.
var ErrNoBackends = errors.New("gateway: no backends registered")

// Lease is one placed session: the backend it lives on.
type Lease struct {
	Backend string
}

// balancerMetrics holds the gateway's registered handles: session placement
// volume, the live session gauge, and the cost of each routing decision.
type balancerMetrics struct {
	placed       *metrics.Counter
	activeConns  *metrics.Gauge
	placeSeconds *metrics.Histogram
	reg          *metrics.Registry
}

// backendSlot is one backend's entry in the balancer's min-heap. pos tracks
// the slot's index in the heap array so Release can sift from the middle
// without searching.
type backendSlot struct {
	name   string
	load   int
	pos    int
	placed *metrics.Counter // per-backend placement counter (nil-safe handle)
}

// Balancer assigns sessions to backends and tracks active session counts. It
// is safe for concurrent use.
type Balancer struct {
	mu     sync.Mutex
	heap   []*backendSlot
	byName map[string]*backendSlot
	// m holds the metric handles behind an atomic pointer so Instrument can
	// attach a registry while placements are in flight (the PR 3 dynamic
	// mid-traffic attach pattern) without a lock on the placement path.
	m atomic.Pointer[balancerMetrics]
}

// NewBalancer creates a balancer over the given backend names: the exact
// deterministic least-loaded rule of §4.
func NewBalancer(backends ...string) *Balancer {
	b := &Balancer{byName: make(map[string]*backendSlot)}
	b.Instrument(nil)
	for _, name := range backends {
		b.AddBackend(name)
	}
	return b
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
	b.mu.Lock()
	for _, s := range b.byName {
		s.placed = reg.Counter(metrics.GatewayBackendPlaced(s.name))
	}
	b.mu.Unlock()
}

// AddBackend registers a backend (API server process) with zero load.
func (b *Balancer) AddBackend(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.byName[name]; ok {
		return
	}
	s := &backendSlot{
		name:   name,
		pos:    len(b.heap),
		placed: b.m.Load().reg.Counter(metrics.GatewayBackendPlaced(name)),
	}
	b.byName[name] = s
	b.heap = append(b.heap, s)
	b.siftUp(s.pos)
}

// Acquire picks the least-loaded backend (ties broken by name, so tests are
// stable), increments its session count and returns the lease.
func (b *Balancer) Acquire() (Lease, error) {
	took := metrics.StartStopwatch()
	b.mu.Lock()
	if len(b.heap) == 0 {
		b.mu.Unlock()
		return Lease{}, ErrNoBackends
	}
	s := b.heap[0]
	s.load++
	b.siftDown(0)
	s.placed.Inc()
	b.mu.Unlock()
	m := b.m.Load()
	m.placed.Inc()
	m.activeConns.Inc()
	took.Observe(m.placeSeconds)
	return Lease{Backend: s.name}, nil
}

// Release ends the leased session.
func (b *Balancer) Release(l Lease) {
	b.mu.Lock()
	s, ok := b.byName[l.Backend]
	if !ok || s.load == 0 {
		b.mu.Unlock()
		return
	}
	s.load--
	b.siftUp(s.pos)
	b.mu.Unlock()
	b.m.Load().activeConns.Dec()
}

// less orders the heap by (load, name), the one placement comparator.
func (b *Balancer) less(i, j int) bool {
	x, y := b.heap[i], b.heap[j]
	return x.load < y.load || (x.load == y.load && x.name < y.name)
}

func (b *Balancer) swap(i, j int) {
	b.heap[i], b.heap[j] = b.heap[j], b.heap[i]
	b.heap[i].pos = i
	b.heap[j].pos = j
}

func (b *Balancer) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(i, parent) {
			break
		}
		b.swap(i, parent)
		i = parent
	}
}

func (b *Balancer) siftDown(i int) {
	n := len(b.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && b.less(left, smallest) {
			smallest = left
		}
		if right < n && b.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		b.swap(i, smallest)
		i = smallest
	}
}

// Proxy is a TCP pass-through applying the Balancer's placement to real
// connections: each accepted client connection is pinned to one backend
// address for its lifetime.
type Proxy struct {
	balancer *Balancer
	backends map[string]string // name → dial address
}

// NewProxy creates a proxy placing connections on the named backends (name →
// dial address).
func NewProxy(backends map[string]string) *Proxy {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return &Proxy{balancer: NewBalancer(names...), backends: backends}
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
