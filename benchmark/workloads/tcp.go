package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"

	"u1/benchmark/report"
	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/server"
)

// tcpEnv is the in-process deployment the TCP workloads load: the full
// cluster on loopback sockets behind the gateway proxy, serving real bytes
// (InlineData) with RPC service times kept virtual (RealSleep off), so host
// time is the program's own cost and nothing else.
type tcpEnv struct {
	cluster *server.Cluster
	tc      *server.TCPCluster
	// direct is the staircase's extra listener on one API server, for the
	// depth that skips the proxy.
	direct net.Listener
	users  []*userModel
}

// openTCP wires the cluster and provisions users accounts with a token and a
// root volume each. Listening starts in listen, after the preseed.
func openTCP(seed int64, users int) (*tcpEnv, error) {
	cluster, err := server.OpenCluster(server.Config{Seed: seed, InlineData: true})
	if err != nil {
		return nil, err
	}
	e := &tcpEnv{cluster: cluster, users: make([]*userModel, users)}
	for i := range e.users {
		id := protocol.UserID(i + 1)
		token, err := cluster.Auth.Issue(id)
		if err != nil {
			return nil, err
		}
		root, err := cluster.Store.CreateUser(id)
		if err != nil {
			return nil, err
		}
		e.users[i] = &userModel{id: id, token: token, root: root.ID, nodes: make(map[protocol.NodeID]string)}
	}
	return e, nil
}

// fill overwrites buf with seeded pseudo-random bytes, a word at a time
// (rand.Rand.Read draws a byte at a time and would dominate payload set-up).
func fill(rng *rand.Rand, buf []byte) {
	for len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, rng.Uint64())
		buf = buf[8:]
	}
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
}

// preseedFile writes one pre-window file straight to the metadata store, as
// workload.Generator.preseed does: no API request, no trace record.
func (e *tcpEnv) preseedFile(u *userModel, name string, h protocol.Hash, size uint64) (protocol.NodeID, error) {
	node, err := e.cluster.Store.MakeFile(u.id, u.root, 0, name)
	if err != nil {
		return 0, err
	}
	if _, _, _, err := e.cluster.Store.MakeContent(u.id, u.root, node.ID, h, size); err != nil {
		return 0, err
	}
	u.add(node.ID, name, true)
	return node.ID, nil
}

// preseedSized gives every user files size-only files with distinct hashes.
func (e *tcpEnv) preseedSized(rng *rand.Rand, files int) error {
	for _, u := range e.users {
		for i := 0; i < files; i++ {
			var h protocol.Hash
			fill(rng, h[:])
			if _, err := e.preseedFile(u, u.nextName("p"), h, uploadSize); err != nil {
				return err
			}
			if err := e.cluster.Blob.PutObjectSized(h.Hex(), uploadSize); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *tcpEnv) listen() error {
	tc, err := e.cluster.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.tc = tc
	return nil
}

func (e *tcpEnv) close() {
	if e.tc != nil {
		e.tc.Close()
	}
	if e.direct != nil {
		e.direct.Close() //nolint:errcheck
	}
}

// dialGateway connects to the gateway proxy: the end-to-end path.
func (e *tcpEnv) dialGateway() (client.Transport, error) {
	return client.DialTCP(e.tc.GateAddr.String())
}

// partition deals the users out to n closed loops, so each loop's model of
// its accounts is private to one goroutine.
func (e *tcpEnv) partition(n int) [][]*userModel {
	parts := make([][]*userModel, n)
	for i, u := range e.users {
		parts[i%n] = append(parts[i%n], u)
	}
	return parts
}

// measure runs the closed loops as the measured phase: process and registry
// are sampled right around it.
func (e *tcpEnv) measure(loops []func()) (begin, end procSample, d regDelta) {
	d.before = e.cluster.Metrics.Snapshot()
	begin = sampleProc()
	runLoops(loops)
	end = sampleProc()
	d.after = e.cluster.Metrics.Snapshot()
	return begin, end, d
}

// runLoops runs the closed loops concurrently and waits for all of them.
func runLoops(loops []func()) {
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
}

// agree checks the load generator's request tally against the servers' own
// counters over the measured phase, and that every answer was OK.
func (r *Result) agree(sent, notOK uint64, d regDelta) {
	served := d.requests()
	r.check("request-counts-agree", float64(sent) == served,
		"load generator sent %d requests, servers counted %.0f", sent, served)
	r.Attempted, r.Failed = sent, notOK
	r.check("all-ok", notOK == 0 && d.errors() == 0,
		"%d answers were not OK (servers counted %.0f errors)", notOK, d.errors())
}

// percentiles reports the median and 99th percentile of one latency class
// under the given metric prefix, with the sample count behind them.
func (r *Result) percentiles(prefix string, micros []float64) {
	sort.Float64s(micros)
	r.Metrics[prefix+"_p50_us"] = report.Percentile(micros, 0.50)
	r.Metrics[prefix+"_p99_us"] = report.Percentile(micros, 0.99)
	if r.Samples == nil {
		r.Samples = make(map[string]int)
	}
	r.Samples[prefix+"_p50_us"] = len(micros)
	r.Samples[prefix+"_p99_us"] = len(micros)
}

func loopErr(conn int, err error) error {
	return fmt.Errorf("connection %d: %w", conn, err)
}
