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

	// Two shards over two backends exercises the sharded placement path on
	// real connections.
	p := NewShardedProxy(2, map[string]string{"a": addrA, "b": addrB})
	if got := len(p.Balancer().shards); got != 2 {
		t.Fatalf("proxy balancer shards = %d, want 2", got)
	}
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
// placement at every step — the Shards=1 determinism contract: the sharded
// balancer with one shard is the old least-loaded heap, placement for
// placement.
func TestBalancerMatchesReferenceModel(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	late := []string{"g", "h", "i"} // joined mid-run, with zero load
	b := NewShardedBalancer(1, names...)
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

// --- Sharded (power-of-two-choices) balancer ---

// shardedNames builds a backend fleet large enough that every shard is
// populated with high probability.
func shardedNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("backend-%02d", i)
	}
	return names
}

func TestShardedBalancerPlacesEverywhere(t *testing.T) {
	// The cluster's 24-backend fleet: the six paper machines
	// (server.DefaultMachines, which this package cannot import) in four
	// banks.
	var fleet []string
	for i := 0; i < 4; i++ {
		for _, m := range []string{"whitecurrant", "blackcurrant", "gooseberry", "cranberry", "elderberry", "boysenberry"} {
			fleet = append(fleet, fmt.Sprintf("%s-%d", m, i))
		}
	}
	// Power-of-two-choices keeps every backend's load within a small factor
	// of the mean; a single random choice would show √n-scale outliers, a
	// broken heap far worse. On the fleet, placement quality as the shard
	// count grows: one shard is the exact least-loaded rule, each doubling
	// trades a little balance for less lock contention. Serial placement is
	// deterministic, so the fleet cases read exactly 1.0001 up to 8 shards
	// and 1.228 at 16.
	for _, tc := range []struct {
		shards, sessions int
		backends         []string
		maxOverMean      float64
	}{
		{4, 1600, shardedNames(16), 2},
		{1, 1 << 16, fleet, 1.01},
		{2, 1 << 16, fleet, 1.01},
		{4, 1 << 16, fleet, 1.01},
		{8, 1 << 16, fleet, 1.01},
		{16, 1 << 16, fleet, 1.25},
	} {
		t.Run(fmt.Sprintf("%d_shards_%d_backends", tc.shards, len(tc.backends)), func(t *testing.T) {
			b := NewShardedBalancer(tc.shards, tc.backends...)
			if len(b.shards) != tc.shards {
				t.Fatalf("shards = %d", len(b.shards))
			}
			reg := metrics.NewRegistry()
			b.Instrument(reg)
			leases := make([]Lease, 0, tc.sessions)
			act := make(map[string]int)
			for i := 0; i < tc.sessions; i++ {
				lease, err := b.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				leases = append(leases, lease)
				act[lease.Backend]++
			}
			if len(act) != len(tc.backends) {
				t.Fatalf("active set %v", act)
			}
			mean := float64(tc.sessions) / float64(len(tc.backends))
			for name, n := range act {
				if float64(n) < mean/2 || float64(n) > tc.maxOverMean*mean {
					t.Errorf("backend %s holds %d sessions (%.4f of the mean), want within [0.5, %g]",
						name, n, float64(n)/mean, tc.maxOverMean)
				}
			}
			// Leases release back to the owning shard: everything drains to zero.
			for _, l := range leases {
				b.Release(l)
			}
			if n := active(reg); n != 0 {
				t.Errorf("leaked %d sessions after release", n)
			}
		})
	}
}

func TestShardedBalancerEmptyShards(t *testing.T) {
	// More shards than backends: some shards are empty and the sampler must
	// fall through to the populated ones.
	b := NewShardedBalancer(8, "a", "b")
	got := make(map[string]int)
	for i := 0; i < 64; i++ {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		got[lease.Backend]++
	}
	if got["a"]+got["b"] != 64 || got["a"] == 0 || got["b"] == 0 {
		t.Errorf("placements = %v, want both backends used", got)
	}
	// Every shard empty: Acquire must fail cleanly, not spin or panic.
	if _, err := NewShardedBalancer(8).Acquire(); !errors.Is(err, ErrNoBackends) {
		t.Errorf("err = %v, want ErrNoBackends", err)
	}
}

func TestShardedBalancerConcurrent(t *testing.T) {
	b := NewShardedBalancer(4, shardedNames(12)...)
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]Lease, 0, 8)
			for i := 0; i < 500; i++ {
				lease, err := b.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, lease)
				if len(held) == 8 {
					for _, l := range held {
						b.Release(l)
					}
					held = held[:0]
				}
			}
			for _, l := range held {
				b.Release(l)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, name := range shardedNames(112)[12:] {
			b.AddBackend(name)
		}
	}()
	wg.Wait()
	if n := active(reg); n != 0 {
		t.Errorf("leaked %d sessions", n)
	}
}

// TestFallThroughLeaseShardMatchesHashShard pins the lease-shard/hash-shard
// agreement behind Release. Acquire's two-choice sampler can land on two
// empty shards and fall through to a linear probe over every shard; the probe
// still takes the backend from the shard its name hashes to, so the recorded
// lease shard and shardOf(name) must agree — otherwise Release would look for
// the backend on a shard that does not hold it, and its load would
// double-count forever. One backend over eight shards makes the fall-through
// path the common case.
func TestFallThroughLeaseShardMatchesHashShard(t *testing.T) {
	const survivor = "backend-00"
	b := NewShardedBalancer(8, survivor)
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	// With 1 populated shard out of 8, most two-choice samples miss it
	// (P ≈ (7/8)·(6/7) per draw), so 400 acquires exercise the fall-through
	// probe hundreds of times.
	for i := 0; i < 400; i++ {
		lease, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if lease.Backend != survivor {
			t.Fatalf("acquire %d placed on %q, want %q", i, lease.Backend, survivor)
		}
		if want := b.shardOf(lease.Backend); lease.shard != want {
			t.Fatalf("acquire %d: lease shard %d != hash shard %d — Release would double-count",
				i, lease.shard, want)
		}
		b.Release(lease)
	}
	if n := active(reg); n != 0 {
		t.Errorf("survivor load = %d after releasing every lease, want 0", n)
	}
	if got := placed(reg, survivor); got != 400 {
		t.Errorf("survivor placements = %d, want 400", got)
	}
}
