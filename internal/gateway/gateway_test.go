package gateway

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

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

// echoServer accepts connections and echoes bytes back, prefixed by its name.
func echoServer(t *testing.T, name string) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf, _ := io.ReadAll(c)
				fmt.Fprintf(c, "%s:%s", name, buf)
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestProxyEndToEnd(t *testing.T) {
	addrA, stopA := echoServer(t, "A")
	defer stopA()
	addrB, stopB := echoServer(t, "B")
	defer stopB()

	p := NewProxy(map[string]string{"a": addrA, "b": addrB})
	reg := metrics.NewRegistry()
	p.Balancer().Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer ln.Close()

	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "ping%d", i)
		conn.(*net.TCPConn).CloseWrite()
		reply, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) < 2 {
			t.Fatalf("short reply %q", reply)
		}
		seen[string(reply[0])] = true
		want := fmt.Sprintf("ping%d", i)
		if string(reply[2:]) != want {
			t.Errorf("reply = %q, want suffix %q", reply, want)
		}
	}
	if len(seen) == 0 {
		t.Error("no backend reached")
	}
	// The proxy releases each lease asynchronously after the copy loops
	// drain; poll briefly instead of racing the handler goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := active(reg)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("balancer still tracks %d active sessions after all connections closed", n)
			break
		}
		time.Sleep(time.Millisecond)
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
