package gateway

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"u1/internal/metrics"
)

// active reads the balancer's live session count from reg.
func active(reg *metrics.Registry) int64 {
	return reg.Gauge(metrics.GatewaySessionsActive).Value()
}

// placed reads a backend's cumulative placement counter from reg.
func placed(reg *metrics.Registry, backend string) uint64 {
	return reg.Counter(metrics.GatewayBackendPlaced(backend)).Value()
}

func TestBalancerLeastLoaded(t *testing.T) {
	b := NewBalancer("a", "b", "c")
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	got := make(map[string][]Lease)
	for i := 0; i < 6; i++ {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		got[lease.Backend] = append(got[lease.Backend], lease)
	}
	// Perfectly balanced: two sessions each.
	for _, name := range []string{"a", "b", "c"} {
		if len(got[name]) != 2 {
			t.Errorf("backend %s got %d sessions", name, len(got[name]))
		}
	}
	// Release both sessions of "b": next two placements go to b.
	for _, l := range got["b"] {
		b.Release(l)
	}
	for i := 0; i < 2; i++ {
		lease, _ := b.Acquire()
		if lease.Backend != "b" {
			t.Errorf("placement %d went to %s, want b", i, lease.Backend)
		}
	}
	if tot := placed(reg, "b"); tot != 4 {
		t.Errorf("placements on b = %d, want 4", tot)
	}
}

func TestBalancerSessionsStick(t *testing.T) {
	// The balancer hands out a lease once; the session keeps it. The active
	// gauge counts held sessions.
	b := NewBalancer("a", "b")
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	l1, _ := b.Acquire()
	l2, _ := b.Acquire()
	if l1.Backend == l2.Backend {
		t.Errorf("both sessions on %s", l1.Backend)
	}
	if n := active(reg); n != 2 {
		t.Errorf("active = %d, want 2", n)
	}
}

func TestBalancerEmpty(t *testing.T) {
	b := NewBalancer()
	if _, err := b.Acquire(); !errors.Is(err, ErrNoBackends) {
		t.Errorf("err = %v", err)
	}
	// Releasing unknown names must not panic or underflow.
	b.Release(Lease{Backend: "ghost"})
	b.Release(Lease{})
	b.AddBackend("x")
	b.AddBackend("x") // idempotent
	lease, err := b.Acquire()
	if err != nil || lease.Backend != "x" {
		t.Errorf("acquire = %s, %v", lease.Backend, err)
	}
}

func TestBalancerConcurrent(t *testing.T) {
	b := NewBalancer("a", "b", "c", "d")
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, err := b.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			b.Release(lease)
		}()
	}
	wg.Wait()
	if n := active(reg); n != 0 {
		t.Errorf("leaked %d sessions", n)
	}
}

// TestProxyEndToEnd places four overlapping connections on two handlers,
// each of which writes its backend's name and serves until its client hangs
// up. Placements alternate by the least-loaded rule, and each lease is
// released the moment its handler returns.
func TestProxyEndToEnd(t *testing.T) {
	serve := func(name string) func(net.Conn) {
		return func(c net.Conn) {
			defer c.Close()
			io.WriteString(c, name) //nolint:errcheck // the client checks it
			io.Copy(io.Discard, c)  //nolint:errcheck // until the client hangs up
		}
	}
	p := NewProxy(map[string]func(net.Conn){"a": serve("a"), "b": serve("b")})
	reg := metrics.NewRegistry()
	p.Balancer().Instrument(reg)

	var clients []net.Conn
	var served []chan struct{}
	for i, want := range []string{"a", "b", "a", "b"} {
		client, conn := net.Pipe()
		done := make(chan struct{})
		go func() {
			p.handle(conn)
			close(done)
		}()
		name := make([]byte, 1)
		if _, err := io.ReadFull(client, name); err != nil {
			t.Fatal(err)
		}
		if string(name) != want {
			t.Errorf("connection %d placed on %q, want %q", i, name, want)
		}
		clients, served = append(clients, client), append(served, done)
	}
	for i, client := range clients {
		if n := active(reg); n != int64(len(clients)-i) {
			t.Errorf("%d active sessions with %d connections open", n, len(clients)-i)
		}
		client.Close()
		<-served[i]
	}
	if n := active(reg); n != 0 {
		t.Errorf("%d active sessions after every handler returned", n)
	}
}

func TestBalancerHeapDeterministicTies(t *testing.T) {
	// One shard must reproduce the old sort-based rule exactly: least loaded
	// wins, ties go to the lexicographically smallest name.
	b := NewBalancer("delta", "alpha", "charlie", "bravo")
	want := []string{"alpha", "bravo", "charlie", "delta", "alpha", "bravo"}
	var charlie Lease
	for i, w := range want {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if lease.Backend != w {
			t.Errorf("placement %d = %s, want %s", i, lease.Backend, w)
		}
		if lease.Backend == "charlie" {
			charlie = lease
		}
	}
	// Releasing from the middle of the heap must restore its priority.
	b.Release(charlie)
	if lease, _ := b.Acquire(); lease.Backend != "charlie" {
		t.Errorf("after releases, placement = %s, want charlie", lease.Backend)
	}
}

func TestBalancerConcurrentChurn(t *testing.T) {
	// Acquire/Release racing AddBackend under -race. The invariants: active
	// counts return to zero, and a quiesced balancer places on the true
	// minimum.
	b := NewBalancer("a", "b", "c", "d")
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				lease, err := b.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				b.Release(lease)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.AddBackend(fmt.Sprintf("e%02d", i))
		}
	}()
	wg.Wait()
	if n := active(reg); n != 0 {
		t.Errorf("leaked %d sessions", n)
	}
	// Quiesced least-loaded check: skew the load, then watch placements
	// rebalance toward the minimum.
	b.Acquire() // a
	b.Acquire() // b
	lease, err := b.Acquire()
	if err != nil || (lease.Backend != "c" && lease.Backend != "d") {
		t.Errorf("placement = %s (%v), want one of the empty backends", lease.Backend, err)
	}
}

func TestBalancerLeastLoadedInvariantUnderLoad(t *testing.T) {
	// With only Acquire/Release traffic, sequential placements from a
	// balanced start must keep the spread ≤ 1 — the least-loaded rule.
	b := NewBalancer("a", "b", "c", "d", "e")
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if lease, err := b.Acquire(); err == nil {
					b.Release(lease)
				}
			}
		}()
	}
	wg.Wait()
	if n := active(reg); n != 0 {
		t.Fatalf("leaked %d sessions", n)
	}
	act := make(map[string]int)
	for i := 0; i < 10; i++ {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		act[lease.Backend]++
	}
	min, max := 1<<30, 0
	for _, n := range act {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("sequential placements spread %v: max-min > 1", act)
	}
}

// TestBalancerMatchesReferenceModel drives random Acquire/Release/
// AddBackend sequences against a naive map-based model and demands identical
// placement at every step: the heap is the least-loaded rule, placement for
// placement.
func TestBalancerMatchesReferenceModel(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	late := []string{"g", "h", "i"} // joined mid-run, with zero load
	b := NewBalancer(names...)
	ref := make(map[string]int)
	for _, n := range names {
		ref[n] = 0
	}
	held := make(map[string][]Lease)
	refAcquire := func() string {
		best := ""
		for n, load := range ref {
			if best == "" || load < ref[best] || (load == ref[best] && n < best) {
				best = n
			}
		}
		ref[best]++
		return best
	}
	r := rand.New(rand.NewSource(42))
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(100); {
		case op < 55: // acquire
			want := refAcquire()
			lease, err := b.Acquire()
			if err != nil || lease.Backend != want {
				t.Fatalf("step %d: Acquire = %q (%v), reference %q; ref=%v",
					step, lease.Backend, err, want, ref)
			}
			held[want] = append(held[want], lease)
		case op < 99: // release a session of a random backend, if it holds one
			n := names[r.Intn(len(names))]
			if k := len(held[n]); k > 0 {
				b.Release(held[n][k-1])
				held[n] = held[n][:k-1]
				ref[n]--
			}
		default: // a backend joins
			if len(late) > 0 {
				n := late[0]
				late, names = late[1:], append(names, n)
				ref[n] = 0
				b.AddBackend(n)
			}
		}
	}
}

// TestShardedBalancerPlacesEverywhere places 2^16 sessions on a 24-backend
// fleet — the six paper machines (server.DefaultMachines, which this package
// cannot import) in four banks — and demands every backend hold the mean to
// within one session: the exact least-loaded rule, with no outliers a broken
// heap would show. The test and case names date from the sharded balancer,
// whose one-shard case is the single heap the balancer now is.
func TestShardedBalancerPlacesEverywhere(t *testing.T) {
	t.Run("1_shards_24_backends", testPlacesEverywhere)
}

func testPlacesEverywhere(t *testing.T) {
	var fleet []string
	for i := 0; i < 4; i++ {
		for _, m := range []string{"whitecurrant", "blackcurrant", "gooseberry", "cranberry", "elderberry", "boysenberry"} {
			fleet = append(fleet, fmt.Sprintf("%s-%d", m, i))
		}
	}
	const sessions = 1 << 16
	b := NewBalancer(fleet...)
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	leases := make([]Lease, 0, sessions)
	act := make(map[string]int)
	for i := 0; i < sessions; i++ {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, lease)
		act[lease.Backend]++
	}
	if len(act) != len(fleet) {
		t.Fatalf("active set %v", act)
	}
	mean := float64(sessions) / float64(len(fleet))
	for name, n := range act {
		if d := float64(n) - mean; d <= -1 || d >= 1 {
			t.Errorf("backend %s holds %d sessions, want within one of the mean %.2f", name, n, mean)
		}
	}
	for _, l := range leases {
		b.Release(l)
	}
	if n := active(reg); n != 0 {
		t.Errorf("leaked %d sessions after release", n)
	}
}
