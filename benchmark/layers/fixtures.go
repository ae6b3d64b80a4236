package layers

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/client"
	"u1/internal/gateway"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/server"
	"u1/internal/sim"
	"u1/internal/trace"
	"u1/internal/wal"
	"u1/internal/wire"
)

// epoch is the fixtures' virtual "now".
var epoch = time.Unix(1390000000, 0)

// chunk bounds how much state a fixture builds before it lets go of it, so a
// long round does not measure the allocator under a growing heap.
const chunk = 1 << 14

// Run measures every fixture and returns the per-layer metrics (source F) by
// name.
func Run(cfg Config) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, fixture := range []func(Config, map[string]float64) error{
		simFixtures, clientFixtures, wireFixtures, gatewayFixtures, apiserverFixtures,
		authFixtures, rpcFixtures, metadataFixtures, blobFixtures, notifyFixtures,
		walFixtures, traceFixtures,
	} {
		if err := fixture(cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simFixtures: no-op events through the sharded engine at one shard, the
// configuration every sim workload runs.
func simFixtures(cfg Config, out map[string]float64) error {
	noop := func() {}
	m := measure(cfg, func(n int) {
		for done := 0; done < n; done += chunk {
			se := sim.NewSharded(epoch, 1, 0)
			eng := se.Shard(0)
			for i := 0; i < min(chunk, n-done); i++ {
				eng.At(epoch.Add(time.Duration(i)*time.Second), noop)
			}
			se.Run()
		}
	})
	out["sim.event_ns"], out["sim.event_allocs"] = m.NsPerOp, m.AllocsPerOp
	return nil
}

// fixtureUser provisions one account with files preseeded files on c.
func fixtureUser(c *server.Cluster, id protocol.UserID, files int) (token string, root protocol.VolumeID, nodes []protocol.NodeID, err error) {
	if token, err = c.Auth.Issue(id); err != nil {
		return
	}
	vol, err := c.Store.CreateUser(id)
	if err != nil {
		return
	}
	for i := 0; i < files; i++ {
		var node protocol.NodeInfo
		if node, err = c.Store.MakeFile(id, vol.ID, 0, fmt.Sprintf("f%d-%d", id, i)); err != nil {
			return
		}
		h := protocol.HashBytes([]byte(node.Name))
		if _, _, _, err = c.Store.MakeContent(id, vol.ID, node.ID, h, 4096); err != nil {
			return
		}
		nodes = append(nodes, node.ID)
	}
	return token, vol.ID, nodes, nil
}

// clientFixtures: the desktop client over the DirectTransport, as the
// simulator drives it.
func clientFixtures(cfg Config, out map[string]float64) error {
	c := server.NewCluster(server.Config{Seed: 1})
	clock := func() time.Time { return epoch }
	token, root, nodes, err := fixtureUser(c, 1, 200)
	if err != nil {
		return err
	}

	// Sync of a 200-node mirror that is one change behind. The change is a
	// rename made straight at the store; its own cost is the baseline loop.
	cli := client.New(client.NewDirectTransport(c.LeastLoaded, clock))
	if err := cli.Connect(token); err != nil {
		return err
	}
	if _, err := cli.Sync(root); err != nil {
		return err
	}
	var renames int
	rename := func() {
		renames++
		c.Store.Move(1, root, nodes[renames%len(nodes)], 0, fmt.Sprintf("r%d", renames)) //nolint:errcheck
	}
	base := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			rename()
		}
	})
	// Renames leave the mirror behind; catch up before measuring.
	if _, err := cli.Sync(root); err != nil {
		return err
	}
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			rename()
			cli.Sync(root) //nolint:errcheck
		}
	}).minus(base)
	out["client.sync_ns"], out["client.sync_allocs"], out["client.sync_bytes"] = m.NsPerOp, m.AllocsPerOp, m.BytesPerOp
	cli.Close() //nolint:errcheck

	// A whole connection: new transport, Connect (Authenticate, ListVolumes,
	// ListShares), Close — what LowMem pays per session.
	m = measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			cl := client.New(client.NewDirectTransport(c.LeastLoaded, clock))
			cl.Connect(token) //nolint:errcheck
			cl.Close()        //nolint:errcheck
		}
	})
	out["client.connect_ns"], out["client.connect_bytes"] = m.NsPerOp, m.BytesPerOp

	// Client-side hashing and compression: Upload of 64 KB minus the same
	// flow with the hash and sizes given.
	up := client.New(client.NewDirectTransport(c.LeastLoaded, clock))
	if err := up.Connect(token); err != nil {
		return err
	}
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte(i * 7 >> 3)
	}
	var serial uint64
	quick := Config{MinTime: cfg.MinTime / 4, Rounds: cfg.Rounds, Dir: cfg.Dir}
	sized := measure(quick, func(n int) {
		for i := 0; i < n; i++ {
			serial++
			var h protocol.Hash
			binary.LittleEndian.PutUint64(h[:], serial)
			up.UploadSized(root, 0, fmt.Sprintf("s%d", serial), h, 64<<10, 32<<10) //nolint:errcheck
		}
	})
	full := measure(quick, func(n int) {
		for i := 0; i < n; i++ {
			serial++
			binary.LittleEndian.PutUint64(content, serial)
			up.Upload(root, 0, fmt.Sprintf("s%d", serial), content) //nolint:errcheck
		}
	})
	out["client.flate_ns_per_kb"] = full.minus(sized).NsPerOp / 64
	return up.Close()
}

// wireFixtures: one request through the codec and the framing and back.
func wireFixtures(cfg Config, out map[string]float64) error {
	var failed error
	roundTrip := func(req *protocol.Request) Measurement {
		var buf bytes.Buffer
		return measure(cfg, func(n int) {
			for i := 0; i < n; i++ {
				buf.Reset()
				if err := wire.WriteFrame(&buf, protocol.FrameRequest, req.Marshal()); err != nil {
					failed = err
				}
				_, payload, err := wire.ReadFrame(&buf)
				if err != nil {
					failed = err
				}
				if _, err := protocol.UnmarshalRequest(payload); err != nil {
					failed = err
				}
			}
		})
	}
	small := roundTrip(&protocol.Request{ID: 7, Op: protocol.OpMakeFile, Volume: 12345, Name: "f1234-5678.jpg"})
	out["wire.rt_small_ns"], out["wire.rt_small_allocs"] = small.NsPerOp, small.AllocsPerOp
	big := roundTrip(&protocol.Request{ID: 7, Op: protocol.OpPutPart, Upload: 99, Part: 1, Data: make([]byte, 1<<20)})
	out["wire.rt_1mb_ns"] = big.NsPerOp
	out["wire.copy_bytes_per_payload_byte"] = big.BytesPerOp / (1 << 20)
	if failed != nil {
		return failed
	}

	// One small frame echoed over a loopback TCP connection: the kernel and
	// scheduler cost of a network hop, which the codec loops above never see
	// and a request through the gateway pays twice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() //nolint:errcheck
		for {
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil || wire.WriteFrame(conn, typ, payload) != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	frame := (&protocol.Request{ID: 7, Op: protocol.OpListVolumes}).Marshal()
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if err := wire.WriteFrame(conn, protocol.FrameRequest, frame); err != nil {
				failed = err
				return
			}
			if _, _, err := wire.ReadFrame(conn); err != nil {
				failed = err
				return
			}
		}
	})
	out["wire.loopback_rt_ns"] = m.NsPerOp
	conn.Close() //nolint:errcheck
	<-echoed
	return failed
}

// gatewayFixtures: one placement decision and its release on the paper's
// six-machine fleet.
func gatewayFixtures(cfg Config, out map[string]float64) error {
	bal := gateway.NewBalancer(server.DefaultMachines...)
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if lease, err := bal.Acquire(); err == nil {
				bal.Release(lease)
			}
		}
	})
	out["gateway.place_ns"] = m.NsPerOp
	return nil
}

// apiserverFixtures: the interceptor chain with no RPC behind it (Ping on an
// open session), and a session's open and close.
func apiserverFixtures(cfg Config, out map[string]float64) error {
	c := server.NewCluster(server.Config{Seed: 1})
	token, _, _, err := fixtureUser(c, 1, 4)
	if err != nil {
		return err
	}
	srv := c.Servers[0]
	sess, resp, _ := srv.OpenSession(token, nil, epoch)
	if resp.Status != protocol.StatusOK {
		return resp.Status.Err()
	}
	ping := &protocol.Request{Op: protocol.OpPing}
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			srv.Handle(sess, ping, epoch)
		}
	})
	out["apiserver.pipeline_ns"], out["apiserver.pipeline_allocs"] = m.NsPerOp, m.AllocsPerOp
	srv.CloseSession(sess, epoch)

	m = measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			s, _, _ := srv.OpenSession(token, nil, epoch)
			srv.CloseSession(s, epoch)
		}
	})
	out["apiserver.session_ns"] = m.NsPerOp
	return nil
}

// authFixtures: token issue (one per user at population build) and
// validation (one per cold cache entry).
func authFixtures(cfg Config, out map[string]float64) error {
	var issued uint64
	var svc *auth.Service
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if issued%chunk == 0 {
				svc = auth.New(auth.Config{Seed: 1})
			}
			issued++
			svc.Issue(protocol.UserID(issued)) //nolint:errcheck
		}
	})
	out["auth.issue_ns"] = m.NsPerOp

	svc = auth.New(auth.Config{Seed: 1})
	tokens := make([]string, 1024)
	for i := range tokens {
		var err error
		if tokens[i], err = svc.Issue(protocol.UserID(i + 1)); err != nil {
			return err
		}
	}
	m = measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			svc.Validate(tokens[i%len(tokens)]) //nolint:errcheck
		}
	})
	out["auth.validate_ns"] = m.NsPerOp
	return nil
}

// rpcFixtures: what the RPC tier adds to one store read — worker selection,
// latency sampling, histograms, span emission.
func rpcFixtures(cfg Config, out map[string]float64) error {
	c := server.NewCluster(server.Config{Seed: 1})
	_, root, nodes, err := fixtureUser(c, 1, 50)
	if err != nil {
		return err
	}
	direct := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			c.Store.GetNode(1, root, nodes[i%len(nodes)]) //nolint:errcheck
		}
	})
	var cost protocol.Cost
	via := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			c.RPC.GetNode(1, root, nodes[i%len(nodes)], epoch, &cost) //nolint:errcheck
		}
	})
	m := via.minus(direct)
	out["rpc.overhead_ns"], out["rpc.overhead_allocs"] = m.NsPerOp, m.AllocsPerOp
	return nil
}

// storeUsers is the population of the metadata fixtures' store.
const storeUsers = 1000

// populate gives a store storeUsers accounts of 20 files each.
func populate(s *metadata.Store) (roots []protocol.VolumeID, nodes [][]protocol.NodeID, err error) {
	for u := 1; u <= storeUsers; u++ {
		id := protocol.UserID(u)
		vol, err := s.CreateUser(id)
		if err != nil {
			return nil, nil, err
		}
		var ids []protocol.NodeID
		for i := 0; i < 20; i++ {
			node, err := s.MakeFile(id, vol.ID, 0, fmt.Sprintf("f%d-%d", u, i))
			if err != nil {
				return nil, nil, err
			}
			ids = append(ids, node.ID)
		}
		roots, nodes = append(roots, vol.ID), append(nodes, ids)
	}
	return roots, nodes, nil
}

// writeMix runs n mutations in cycles of four on rotating users — MakeFile,
// MakeContent, Move, Unlink — so the store's size stays put.
func writeMix(s *metadata.Store, roots []protocol.VolumeID, serial *uint64) func(n int) {
	return func(n int) {
		for i := 0; i < n; i += 4 {
			*serial++
			u := int(*serial % storeUsers)
			id, vol := protocol.UserID(u+1), roots[u]
			node, err := s.MakeFile(id, vol, 0, fmt.Sprintf("w%d", *serial))
			if err != nil {
				continue
			}
			var h protocol.Hash
			binary.LittleEndian.PutUint64(h[:], *serial)
			s.MakeContent(id, vol, node.ID, h, 4096)                 //nolint:errcheck
			s.Move(id, vol, node.ID, 0, fmt.Sprintf("x%d", *serial)) //nolint:errcheck
			s.Unlink(id, vol, node.ID)                               //nolint:errcheck
		}
	}
}

// metadataFixtures: a read mix and a write mix on a 1 000-user in-memory
// store, the cascade read, and what journaling adds to a mutation.
func metadataFixtures(cfg Config, out map[string]float64) error {
	s := metadata.New(metadata.Config{})
	roots, nodes, err := populate(s)
	if err != nil {
		return err
	}
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			u := i % storeUsers
			id, vol := protocol.UserID(u+1), roots[u]
			switch i % 3 {
			case 0:
				s.GetNode(id, vol, nodes[u][i%20]) //nolint:errcheck
			case 1:
				s.ListVolumes(id) //nolint:errcheck
			default:
				s.GetDelta(id, vol, 19) //nolint:errcheck // one entry behind
			}
		}
	})
	out["metadata.read_ns"] = m.NsPerOp

	var serial uint64
	mem := measure(cfg, writeMix(s, roots, &serial))
	out["metadata.write_ns"], out["metadata.write_allocs"], out["metadata.write_bytes"] = mem.NsPerOp, mem.AllocsPerOp, mem.BytesPerOp

	big := metadata.New(metadata.Config{})
	vol, err := big.CreateUser(1)
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		if _, err := big.MakeFile(1, vol.ID, 0, fmt.Sprintf("f%d", i)); err != nil {
			return err
		}
	}
	m = measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			big.GetFromScratch(1, vol.ID) //nolint:errcheck
		}
	})
	out["metadata.scratch_ns_per_node"] = m.NsPerOp / 201

	dir, err := os.MkdirTemp(cfg.Dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	durable, err := metadata.Open(metadata.Config{Durability: dir, FsyncPolicy: wal.FsyncAsync})
	if err != nil {
		return err
	}
	droots, _, err := populate(durable)
	if err != nil {
		return err
	}
	serial = 0
	journaled := measure(cfg, writeMix(durable, droots, &serial))
	out["metadata.journal_ns_per_mutation"] = journaled.minus(mem).NsPerOp
	return durable.Close()
}

// blobFixtures: real puts and gets at the two ends of tcp-data's size table,
// and the size-only put the simulator uses.
func blobFixtures(cfg Config, out map[string]float64) error {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = protocol.HashBytes([]byte{byte(i), byte(i >> 8)}).Hex()
	}
	put := func(size, rotate int) Measurement {
		s := blob.New(blob.Config{KeepData: true})
		data := make([]byte, size)
		return measure(cfg, func(n int) {
			for i := 0; i < n; i++ {
				s.PutObject(keys[i%rotate], data) //nolint:errcheck
			}
		})
	}
	out["blob.put_4k_ns"] = put(4<<10, 1024).NsPerOp
	out["blob.put_1mb_ns"] = put(1<<20, 8).NsPerOp

	s := blob.New(blob.Config{KeepData: true})
	for i := 0; i < 8; i++ {
		if err := s.PutObject(keys[i], make([]byte, 1<<20)); err != nil {
			return err
		}
	}
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			s.GetObject(keys[i%8]) //nolint:errcheck
		}
	})
	out["blob.get_1mb_ns"] = m.NsPerOp

	sized := blob.New(blob.Config{})
	m = measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			sized.PutObjectSized(keys[i%len(keys)], 4096) //nolint:errcheck
		}
	})
	out["blob.put_sized_ns"] = m.NsPerOp
	return nil
}

// notifyFixtures: one publish fanned out to the paper's six API machines.
// Queues of one keep the consumers out of the measurement: the steady state
// is the fan-out walk plus the drop branch, as in internal/hotpath.
func notifyFixtures(cfg Config, out map[string]float64) error {
	b := notify.NewBroker()
	for _, name := range server.DefaultMachines {
		b.Register(name, 1)
	}
	e := notify.Event{Kind: protocol.PushVolumeChanged, User: 1, Volume: 1, Origin: server.DefaultMachines[0]}
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			b.Publish(e)
		}
	})
	out["notify.publish_ns"] = m.NsPerOp
	return nil
}

// walFixtures: one 256-byte journal append under the two policies the
// benchmark runs (sim-durable: group commit; the journal fixture: async).
func walFixtures(cfg Config, out map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.Dir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	payload := make([]byte, 256)
	for _, p := range []struct {
		policy wal.Policy
		metric string
	}{{wal.FsyncAsync, "wal.append_async_ns"}, {wal.FsyncGroupCommit, "wal.append_group_ns"}} {
		log, err := wal.Open(filepath.Join(dir, p.policy.String()), wal.Options{Policy: p.policy})
		if err != nil {
			return err
		}
		var failed error
		m := measure(cfg, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := log.Append(payload); err != nil {
					failed = err
				}
			}
		})
		out[p.metric] = m.NsPerOp
		if p.policy == wal.FsyncGroupCommit {
			if appends, syncs := log.Stats(); appends > 0 {
				out["wal.syncs_per_append"] = float64(syncs) / float64(appends)
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
		if failed != nil {
			return failed
		}
	}
	return nil
}

// traceFixtures: the trace collector's API observer fed recorded events.
func traceFixtures(cfg Config, out map[string]float64) error {
	events := make([]apiserver.Event, 1024)
	ops := protocol.Ops()
	for i := range events {
		events[i] = apiserver.Event{
			Server: server.DefaultMachines[i%len(server.DefaultMachines)], Proc: i % 12,
			Session: protocol.SessionID(i), User: protocol.UserID(i%97 + 1), Op: ops[i%len(ops)],
			Volume: protocol.VolumeID(i%97 + 1), Node: protocol.NodeID(i + 1), Size: uint64(i) << 8,
			Ext: []string{"jpg", "txt", "", "mp3"}[i%4], Start: epoch.Add(time.Duration(i) * time.Second),
			Duration: time.Millisecond,
		}
	}
	var fed int
	var observe apiserver.Observer
	m := measure(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if fed%(chunk*8) == 0 {
				observe = trace.NewCollector(trace.Config{Start: epoch, Days: 30, Seed: 1}).APIObserver()
			}
			fed++
			observe(events[i%len(events)])
		}
	})
	out["trace.collect_ns_per_record"], out["trace.bytes_per_record"] = m.NsPerOp, m.BytesPerOp
	return nil
}
