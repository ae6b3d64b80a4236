package workloads

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"u1/benchmark/report"
	"u1/benchmark/spans"
	"u1/benchmark/spec"
	"u1/internal/apiserver"
	"u1/internal/client"
	"u1/internal/metadata"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/server"
)

// The staircase replays one seeded script of tcp-meta's operation kinds,
// plus a 64 KB download, at six depths of the stack with a span around every
// request. The same request served one layer deeper costs that layer's self
// time less, so per request kind: self(layer k) = median(d_k) − median(d_k−1).

// Depths of the staircase, shallowest call first.
var Depths = []string{
	"d-2 metadata.Store",
	"d-1 rpc.Server",
	"d0 apiserver.Handle",
	"d1 client/direct",
	"d2 client/tcp",
	"d3 client/tcp/gateway",
}

// staircaseMix is tcp-meta's mix plus five 64 KB downloads per 100.
var staircaseMix = func() [numOpKinds]int {
	mix := metaMix
	mix[opDownload] = 5
	return mix
}()

// blobSize is the staircase's download size: inline, below blob.PartSize.
const blobSize = 64 << 10

// StaircaseRow is one request kind across the depths: median nanoseconds
// and sample count per depth.
type StaircaseRow struct {
	Request  string    `json:"request"`
	MedianNs []float64 `json:"median_ns"`
	N        []int     `json:"n"`
}

// Staircase is the result of one staircase run.
type Staircase struct {
	Depths []string       `json:"depths"`
	Rows   []StaircaseRow `json:"rows"`
	// ReadP50Us and WriteP50Us are the client-observed medians at d3 over
	// tcp-meta's read and write classes: they must agree with the untraced
	// tcp-meta run.
	ReadP50Us  float64 `json:"d3_read_p50_us"`
	WriteP50Us float64 `json:"d3_write_p50_us"`
	// Layers holds the per-layer metrics the staircase yields.
	Layers map[string]float64 `json:"layers"`
}

// selfOps maps the apiserver.self_ns.<op> metric names to request kinds.
var selfOps = map[string]protocol.Op{
	"ListVolumes": protocol.OpListVolumes,
	"GetDelta":    protocol.OpGetDelta,
	"MakeFile":    protocol.OpMakeFile,
	"PutContent":  protocol.OpPutContent,
	"Move":        protocol.OpMove,
	"Unlink":      protocol.OpUnlink,
}

// RunStaircase replays opsPerConn operations per connection at every depth,
// each against a fresh cluster preseeded like tcp-meta's. rec, when set,
// receives the spans of every depth (names are prefixed with the depth).
func RunStaircase(seed int64, scale float64, opsPerConn int, rec *spans.Recorder) (*Staircase, error) {
	w, _ := spec.WorkloadByName(spec.TCPMeta)
	sz := w.Sizes
	if scale > 0 && scale != 1 {
		sz = sz.Scaled(scale)
	}
	st := &Staircase{Depths: Depths, Layers: make(map[string]float64)}
	perDepth := make([]map[string][]float64, len(Depths))
	var d3 [numOpKinds][]float64
	for depth := range Depths {
		durations, lat, err := runDepth(seed, sz, opsPerConn, depth, rec)
		if err != nil {
			return nil, fmt.Errorf("staircase %s: %w", Depths[depth], err)
		}
		perDepth[depth] = durations
		if depth == len(Depths)-1 {
			d3 = lat
		}
	}

	names := make(map[string]bool)
	for _, m := range perDepth {
		for name := range m {
			names[name] = true
		}
	}
	var sorted []string
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	median := func(depth int, op protocol.Op) float64 {
		return report.Median(perDepth[depth][spans.DoName(op)])
	}
	for _, name := range sorted {
		row := StaircaseRow{Request: name}
		for depth := range Depths {
			row.MedianNs = append(row.MedianNs, report.Median(perDepth[depth][name]))
			row.N = append(row.N, len(perDepth[depth][name]))
		}
		st.Rows = append(st.Rows, row)
	}

	for name, op := range selfOps {
		st.Layers["apiserver.self_ns."+name] = median(2, op) - median(1, op)
	}
	// The proxy's cost per request: what the gateway hop adds to the
	// single-request kinds, averaged over them.
	var proxy float64
	single := []protocol.Op{protocol.OpListVolumes, protocol.OpListShares, protocol.OpGetDelta,
		protocol.OpMakeDir, protocol.OpMove, protocol.OpUnlink}
	for _, op := range single {
		proxy += median(5, op) - median(4, op)
	}
	st.Layers["gateway.proxy_us"] = proxy / float64(len(single)) / 1e3

	var reads, writes []float64
	for k, lat := range d3 {
		switch {
		case opKind(k) == opDownload:
		case opKind(k).isRead():
			reads = append(reads, lat...)
		default:
			writes = append(writes, lat...)
		}
	}
	st.ReadP50Us, st.WriteP50Us = report.Median(reads), report.Median(writes)
	return st, nil
}

// runDepth runs the script at one depth and returns the request durations by
// span name (nanoseconds) and the client-operation latencies by kind.
func runDepth(seed int64, sz spec.Sizes, opsPerConn, depth int, out *spans.Recorder) (map[string][]float64, [numOpKinds][]float64, error) {
	var lat [numOpKinds][]float64
	apiserver.ResetSessionIDs()
	env, err := openTCP(seed, sz.Users)
	if err != nil {
		return nil, lat, err
	}
	defer env.close()
	rng := rand.New(rand.NewSource(seed))
	if err := env.preseedSized(rng, sz.FilesPerUser); err != nil {
		return nil, lat, err
	}
	payload := make([]byte, blobSize)
	fill(rng, payload)
	h := protocol.HashBytes(payload)
	if err := env.cluster.Blob.PutObject(h.Hex(), payload); err != nil {
		return nil, lat, err
	}
	for _, u := range env.users {
		if u.blob, err = env.preseedFile(u, "blob64k", h, blobSize); err != nil {
			return nil, lat, err
		}
		u.files = u.files[:len(u.files)-1] // never moved or unlinked
	}
	if err := env.listen(); err != nil {
		return nil, lat, err
	}
	if env.direct, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, lat, err
	}
	go env.cluster.Servers[0].Serve(env.direct) //nolint:errcheck // ends when env.close closes the listener

	rec := spans.NewRecorder()
	parts := env.partition(sz.Conns)
	runs := make([]*scriptRun, sz.Conns)
	loops := make([]func(), sz.Conns)
	for c := range runs {
		lrng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		runs[c] = &scriptRun{
			exec: depthExecutor(env, depth, rec), users: parts[c], rng: lrng, rec: rec,
			seq: opSequence(lrng, opsPerConn, staircaseMix), coldEvery: coldEvery, loop: uint64(c + 1),
		}
		loops[c] = runs[c].run
	}
	runLoops(loops)
	var errs []error
	for _, run := range runs {
		errs = append(errs, run.err)
		for k := range lat {
			lat[k] = append(lat[k], run.lat[k]...)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, lat, err
	}

	durations := make(map[string][]float64)
	for _, s := range rec.Spans() {
		if strings.HasPrefix(s.Name, "do/") {
			durations[s.Name] = append(durations[s.Name], float64(s.EndNs-s.StartNs))
		}
	}
	out.Append(Depths[depth]+" ", rec)
	return durations, lat, nil
}

func depthExecutor(env *tcpEnv, depth int, rec *spans.Recorder) executor {
	c := env.cluster
	switch depth {
	case 0:
		return &lowExec{rec: rec, api: storeAPI{c.Store}}
	case 1:
		return &lowExec{rec: rec, api: rpcAPI{c.RPC}}
	case 2:
		return &handleExec{rec: rec, cluster: c}
	case 3:
		return &clientExec{rec: rec, dial: func() (client.Transport, error) {
			return client.NewDirectTransport(c.LeastLoaded, nil), nil
		}}
	case 4:
		// Straight to one API server's listener, skipping the proxy.
		addr := env.direct.Addr().String()
		return &clientExec{rec: rec, dial: func() (client.Transport, error) { return client.DialTCP(addr) }}
	default:
		return &clientExec{rec: rec, dial: env.dialGateway}
	}
}

// dalAPI is the metadata surface a request reaches, at the store (d-2) or
// through the RPC tier (d-1). The two have the same shape by design: the RPC
// tier wraps every store call with worker selection, latency sampling and
// span emission, and nothing else.
type dalAPI interface {
	ensureUser(u protocol.UserID) error
	listVolumes(u protocol.UserID) error
	listShares(u protocol.UserID) error
	getDelta(u protocol.UserID, vol protocol.VolumeID, from protocol.Generation) (protocol.Generation, error)
	makeNode(u protocol.UserID, vol protocol.VolumeID, name string, dir bool) (protocol.NodeInfo, error)
	move(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, name string) (protocol.NodeInfo, error)
	unlink(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (protocol.Generation, error)
	getNode(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) error
	openUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64) (protocol.UploadID, error)
	commitUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, id protocol.UploadID, h protocol.Hash, size uint64) (protocol.NodeInfo, error)
}

var epoch = time.Unix(1390000000, 0)

type storeAPI struct{ s *metadata.Store }

func (a storeAPI) ensureUser(u protocol.UserID) error  { _, err := a.s.CreateUser(u); return err }
func (a storeAPI) listVolumes(u protocol.UserID) error { _, err := a.s.ListVolumes(u); return err }
func (a storeAPI) listShares(u protocol.UserID) error  { _, err := a.s.ListShares(u); return err }
func (a storeAPI) getDelta(u protocol.UserID, vol protocol.VolumeID, from protocol.Generation) (protocol.Generation, error) {
	_, gen, err := a.s.GetDelta(u, vol, from)
	if errors.Is(err, metadata.ErrDeltaTruncated) {
		_, gen, err = a.s.GetFromScratch(u, vol)
	}
	return gen, err
}
func (a storeAPI) makeNode(u protocol.UserID, vol protocol.VolumeID, name string, dir bool) (protocol.NodeInfo, error) {
	if dir {
		return a.s.MakeDir(u, vol, 0, name)
	}
	return a.s.MakeFile(u, vol, 0, name)
}
func (a storeAPI) move(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, name string) (protocol.NodeInfo, error) {
	return a.s.Move(u, vol, node, 0, name)
}
func (a storeAPI) unlink(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (protocol.Generation, error) {
	_, gen, _, err := a.s.Unlink(u, vol, node)
	return gen, err
}
func (a storeAPI) getNode(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) error {
	_, err := a.s.GetNode(u, vol, node)
	return err
}
func (a storeAPI) openUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64) (protocol.UploadID, error) {
	if _, _, err := a.s.LookupContent(h); err != nil {
		return 0, err
	}
	job, err := a.s.MakeUploadJob(u, vol, node, h, size, epoch)
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}
func (a storeAPI) commitUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, id protocol.UploadID, h protocol.Hash, size uint64) (protocol.NodeInfo, error) {
	if _, err := a.s.AddPartToUploadJob(u, id, size, epoch); err != nil {
		return protocol.NodeInfo{}, err
	}
	info, _, _, err := a.s.MakeContent(u, vol, node, h, size)
	if err != nil {
		return info, err
	}
	return info, a.s.DeleteUploadJob(u, id)
}

type rpcAPI struct{ s *rpc.Server }

func (a rpcAPI) ensureUser(u protocol.UserID) error {
	a.s.ObserveAuth(u, epoch, nil, nil)
	_, err := a.s.Store().CreateUser(u)
	return err
}
func (a rpcAPI) listVolumes(u protocol.UserID) error {
	_, err := a.s.ListVolumes(u, epoch, nil)
	return err
}
func (a rpcAPI) listShares(u protocol.UserID) error {
	_, err := a.s.ListShares(u, epoch, nil)
	return err
}
func (a rpcAPI) getDelta(u protocol.UserID, vol protocol.VolumeID, from protocol.Generation) (protocol.Generation, error) {
	_, gen, err := a.s.GetDelta(u, vol, from, epoch, nil)
	if errors.Is(err, metadata.ErrDeltaTruncated) {
		_, gen, err = a.s.GetFromScratch(u, vol, epoch, nil)
	}
	return gen, err
}
func (a rpcAPI) makeNode(u protocol.UserID, vol protocol.VolumeID, name string, dir bool) (protocol.NodeInfo, error) {
	if dir {
		return a.s.MakeDir(u, vol, 0, name, epoch, nil)
	}
	return a.s.MakeFile(u, vol, 0, name, epoch, nil)
}
func (a rpcAPI) move(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, name string) (protocol.NodeInfo, error) {
	return a.s.Move(u, vol, node, 0, name, epoch, nil)
}
func (a rpcAPI) unlink(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) (protocol.Generation, error) {
	_, gen, _, err := a.s.Unlink(u, vol, node, epoch, nil)
	return gen, err
}
func (a rpcAPI) getNode(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID) error {
	_, err := a.s.GetNode(u, vol, node, epoch, nil)
	return err
}
func (a rpcAPI) openUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, size uint64) (protocol.UploadID, error) {
	if _, _, err := a.s.GetReusableContent(u, h, epoch, nil); err != nil {
		return 0, err
	}
	job, err := a.s.MakeUploadJob(u, vol, node, h, size, epoch, nil)
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}
func (a rpcAPI) commitUpload(u protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, id protocol.UploadID, h protocol.Hash, size uint64) (protocol.NodeInfo, error) {
	if _, err := a.s.AddPartToUploadJob(u, id, size, epoch, nil); err != nil {
		return protocol.NodeInfo{}, err
	}
	info, _, _, err := a.s.MakeContent(u, vol, node, h, size, epoch, nil)
	if err != nil {
		return info, err
	}
	return info, a.s.DeleteUploadJob(u, id, epoch, nil)
}

// lowExec serves sessions at d-2 and d-1: the metadata calls each API
// request makes, with a span per request named like the client's.
type lowExec struct {
	rec *spans.Recorder
	api dalAPI
}

// sessionState is what a session below the client must track itself: whose
// it is, the generation its mirror would hold, and the span in flight.
type sessionState struct {
	rec     *spans.Recorder
	user    protocol.UserID
	root    protocol.VolumeID
	gen     protocol.Generation
	parent  spans.ID
	request uint64
}

func (s *sessionState) setSpan(parent spans.ID, request uint64) {
	s.parent, s.request = parent, request
}

// advance mirrors Client.applyLocal: the session's known generation follows
// its own mutations only while they are contiguous.
func (s *sessionState) advance(gen protocol.Generation) {
	if gen == s.gen+1 {
		s.gen = gen
	}
}

// timed records one request's span around fn.
func (s *sessionState) timed(op protocol.Op, fn func() error) error {
	id := s.rec.Begin(spans.DoName(op), s.parent, s.request)
	err := fn()
	s.rec.End(id)
	return err
}

type lowSession struct {
	sessionState
	exec *lowExec
}

func (e *lowExec) open(u *userModel, parent spans.ID, request uint64) (session, error) {
	s := &lowSession{exec: e, sessionState: sessionState{rec: e.rec, user: u.id, root: u.root, parent: parent, request: request}}
	if err := s.timed(protocol.OpAuthenticate, func() error { return e.api.ensureUser(u.id) }); err != nil {
		return nil, err
	}
	if err := s.listVolumes(); err != nil {
		return nil, err
	}
	return s, s.listShares()
}

func (s *lowSession) listVolumes() error {
	return s.timed(protocol.OpListVolumes, func() error { return s.exec.api.listVolumes(s.user) })
}

func (s *lowSession) listShares() error {
	return s.timed(protocol.OpListShares, func() error { return s.exec.api.listShares(s.user) })
}

func (s *lowSession) sync() error {
	return s.timed(protocol.OpGetDelta, func() error {
		gen, err := s.exec.api.getDelta(s.user, s.root, s.gen)
		if err == nil {
			s.gen = gen
		}
		return err
	})
}

func (s *lowSession) make(op protocol.Op, name string) (protocol.NodeID, error) {
	var node protocol.NodeInfo
	err := s.timed(op, func() (err error) {
		node, err = s.exec.api.makeNode(s.user, s.root, name, op == protocol.OpMakeDir)
		return err
	})
	s.advance(node.Generation)
	return node.ID, err
}

func (s *lowSession) mkdir(name string) (protocol.NodeID, error) {
	return s.make(protocol.OpMakeDir, name)
}

func (s *lowSession) upload(name string, h protocol.Hash, size uint64) (protocol.NodeID, error) {
	node, err := s.make(protocol.OpMakeFile, name)
	if err != nil {
		return 0, err
	}
	var job protocol.UploadID
	if err := s.timed(protocol.OpPutContent, func() (err error) {
		job, err = s.exec.api.openUpload(s.user, s.root, node, h, size)
		return err
	}); err != nil {
		return 0, err
	}
	return node, s.timed(protocol.OpPutPart, func() error {
		info, err := s.exec.api.commitUpload(s.user, s.root, node, job, h, size)
		s.advance(info.Generation)
		return err
	})
}

func (s *lowSession) move(node protocol.NodeID, name string) error {
	return s.timed(protocol.OpMove, func() error {
		info, err := s.exec.api.move(s.user, s.root, node, name)
		s.advance(info.Generation)
		return err
	})
}

func (s *lowSession) unlink(node protocol.NodeID) error {
	return s.timed(protocol.OpUnlink, func() error {
		gen, err := s.exec.api.unlink(s.user, s.root, node)
		s.advance(gen)
		return err
	})
}

func (s *lowSession) download(node protocol.NodeID) error {
	return s.timed(protocol.OpGetContent, func() error { return s.exec.api.getNode(s.user, s.root, node) })
}

func (s *lowSession) close() error { return nil }

// handleExec serves sessions at d0: the requests the client would send,
// handed straight to apiserver.Server.Handle.
type handleExec struct {
	rec     *spans.Recorder
	cluster *server.Cluster
}

type handleSession struct {
	sessionState
	srv  *apiserver.Server
	sess *apiserver.Session
}

func (e *handleExec) open(u *userModel, parent spans.ID, request uint64) (session, error) {
	s := &handleSession{
		sessionState: sessionState{rec: e.rec, user: u.id, root: u.root, parent: parent, request: request},
		srv:          e.cluster.LeastLoaded(),
	}
	var resp *protocol.Response
	s.timed(protocol.OpAuthenticate, func() error { //nolint:errcheck // the status below is the outcome
		s.sess, resp, _ = s.srv.OpenSession(u.token, nil, time.Now())
		return nil
	})
	if resp.Status != protocol.StatusOK {
		return nil, resp.Status.Err()
	}
	if err := s.listVolumes(); err != nil {
		return nil, err
	}
	return s, s.listShares()
}

func (s *handleSession) handle(req *protocol.Request) (resp *protocol.Response, err error) {
	err = s.timed(req.Op, func() error {
		resp, _ = s.srv.Handle(s.sess, req, time.Now())
		return resp.Status.Err()
	})
	return resp, err
}

func (s *handleSession) listVolumes() error {
	_, err := s.handle(&protocol.Request{Op: protocol.OpListVolumes})
	return err
}

func (s *handleSession) listShares() error {
	_, err := s.handle(&protocol.Request{Op: protocol.OpListShares})
	return err
}

func (s *handleSession) sync() error {
	resp, err := s.handle(&protocol.Request{Op: protocol.OpGetDelta, Volume: s.root, FromGen: s.gen})
	if err == nil {
		s.gen = resp.Generation
	}
	return err
}

func (s *handleSession) mkdir(name string) (protocol.NodeID, error) {
	resp, err := s.handle(&protocol.Request{Op: protocol.OpMakeDir, Volume: s.root, Name: name})
	if err != nil {
		return 0, err
	}
	s.advance(resp.Generation)
	return resp.Node.ID, nil
}

func (s *handleSession) upload(name string, h protocol.Hash, size uint64) (protocol.NodeID, error) {
	mk, err := s.handle(&protocol.Request{Op: protocol.OpMakeFile, Volume: s.root, Name: name})
	if err != nil {
		return 0, err
	}
	s.advance(mk.Generation)
	put, err := s.handle(&protocol.Request{
		Op: protocol.OpPutContent, Volume: s.root, Node: mk.Node.ID, Name: name,
		Hash: h, Size: size, CompressedSize: size,
	})
	if err != nil {
		return 0, err
	}
	part, err := s.handle(&protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Size: size, Final: true})
	if err != nil {
		return 0, err
	}
	s.advance(part.Generation)
	return mk.Node.ID, nil
}

func (s *handleSession) move(node protocol.NodeID, name string) error {
	resp, err := s.handle(&protocol.Request{Op: protocol.OpMove, Volume: s.root, Node: node, Name: name})
	if err == nil {
		s.advance(resp.Generation)
	}
	return err
}

func (s *handleSession) unlink(node protocol.NodeID) error {
	resp, err := s.handle(&protocol.Request{Op: protocol.OpUnlink, Volume: s.root, Node: node})
	if err == nil {
		s.advance(resp.Generation)
	}
	return err
}

func (s *handleSession) download(node protocol.NodeID) error {
	_, err := s.handle(&protocol.Request{Op: protocol.OpGetContent, Volume: s.root, Node: node})
	return err
}

func (s *handleSession) close() error {
	return s.timed(protocol.OpCloseSession, func() error {
		s.srv.CloseSession(s.sess, time.Now())
		return nil
	})
}
