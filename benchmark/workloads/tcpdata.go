package workloads

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"

	"u1/benchmark/spans"
	"u1/benchmark/spec"
	"u1/internal/blob"
	"u1/internal/client"
	"u1/internal/protocol"
)

// dataClasses is tcp-data's size table, shaped like Fig. 4b: 90 % of files
// under 1 MB, and 2 % at 12 MB so that some transfers cross blob.PartSize
// and take the multipart path. Per 100 uploads, reoffers re-offer a hash the
// store already holds (17 in 100, the paper's dedup ratio of 0.171) and move
// no bytes. Downloads use the same table.
var dataClasses = []struct {
	size     int
	per100   int
	reoffers int
}{
	{4 << 10, 30, 5},
	{16 << 10, 25, 4},
	{64 << 10, 20, 3},
	{256 << 10, 15, 3},
	{1 << 20, 8, 2},
	{12 << 20, 2, 0},
}

// poolPerClass is how many distinct preseeded contents exist per size class;
// every user's preseeded files reference them, so downloads and re-offers
// have real bytes behind them without a copy per user.
const poolPerClass = 4

// transfer is one entry of a connection's script.
type transfer struct {
	class   uint8
	upload  bool
	reoffer bool
}

// transferSequence builds n transfers with a fixed composition (half
// uploads, half downloads, the size table and re-offer share exact per 200)
// in an order only the seed decides. The block is first put in one fixed
// interleaved order so that a truncated last block is still representative.
func transferSequence(rng *rand.Rand, n int) []transfer {
	var block []transfer
	for c, cl := range dataClasses {
		for i := 0; i < cl.per100; i++ {
			block = append(block, transfer{class: uint8(c), upload: true, reoffer: i < cl.reoffers})
			block = append(block, transfer{class: uint8(c)})
		}
	}
	fixed := rand.New(rand.NewSource(1))
	fixed.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	seq := make([]transfer, 0, n+len(block))
	for len(seq) < n {
		seq = append(seq, block...)
	}
	seq = seq[:n]
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// stored is one file whose bytes the store must hold: what a download of it
// has to return.
type stored struct {
	user *userModel
	node protocol.NodeID
	hash protocol.Hash
	size int
}

// dataLoop is one tcp-data connection: it drives raw protocol.Requests at
// the client.Transport boundary — MakeFile, PutContent, PutPart…;
// GetContent, GetPart… — not Client.Upload, whose client-side compression
// would make this a benchmark of compress/flate.
type dataLoop struct {
	env   *tcpEnv
	users []*userModel
	seq   []transfer
	// hashes[i] is the precomputed SHA-1 of upload i's payload: the class
	// buffer with the upload's serial stamped over its first bytes.
	hashes []protocol.Hash
	bufs   [][]byte
	// files[user][class] lists the user's preseeded downloadable nodes, and
	// held the hash each of them holds.
	files map[protocol.UserID][][]protocol.NodeID
	held  map[protocol.NodeID]protocol.Hash
	rng   *rand.Rand
	rec   *spans.Recorder
	loop  uint64

	requests, notOK  uint64
	bytesUp, bytesDn uint64
	reused, badSize  int
	sessions         int
	// uploaded is the first upload of every size class that moved bytes:
	// re-downloaded and verified after the measured phase.
	uploaded []stored
	sampled  []bool // by size class
	err      error
}

// stamp makes upload i's payload unique: its serial over the first 8 bytes.
func (l *dataLoop) stamp(buf []byte, i uint64) {
	binary.LittleEndian.PutUint64(buf, l.loop<<40|i)
}

func (l *dataLoop) run() {
	request := l.loop << 40
	uploads := 0
	for next := 0; next < len(l.seq); {
		u := l.users[l.rng.Intn(len(l.users))]
		l.sessions++
		request++
		span := l.rec.Begin("session", 0, request)
		inner, err := l.env.dialGateway()
		if err != nil {
			l.err = err
			return
		}
		tr := &spans.Transport{Inner: inner, Rec: l.rec, Parent: span, Request: request}
		if _, err := doOK(tr, &protocol.Request{Op: protocol.OpAuthenticate, Token: u.token}); err != nil {
			l.err = err
			return
		}
		for n := 0; n < spec.SessionOps && next < len(l.seq); n++ {
			t := l.seq[next]
			next++
			request++
			name := "data.Download"
			if t.upload {
				name = "data.Upload"
			}
			op := l.rec.Begin(name, span, request)
			tr.Parent, tr.Request = op, request
			if t.upload {
				err = l.upload(tr, u, t, uploads)
				uploads++
			} else {
				err = l.download(tr, u, t)
			}
			l.rec.End(op)
			if err != nil {
				l.err = fmt.Errorf("user %d: %w", u.id, err)
				return
			}
		}
		tr.Parent = span
		if _, err := doOK(tr, &protocol.Request{Op: protocol.OpCloseSession}); err != nil {
			l.err = err
			return
		}
		tr.Close() //nolint:errcheck
		l.rec.End(span)
		l.requests += tr.Requests
		l.notOK += tr.NotOK
	}
}

// doOK sends one request and turns any answer but OK into an error.
func doOK(tr client.Transport, req *protocol.Request) (*protocol.Response, error) {
	resp, err := tr.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", req.Op, err)
	}
	if resp.Status != protocol.StatusOK {
		return nil, fmt.Errorf("%v: %w", req.Op, resp.Status.Err())
	}
	return resp, nil
}

func (l *dataLoop) upload(tr client.Transport, u *userModel, t transfer, i int) error {
	size := dataClasses[t.class].size
	var h protocol.Hash
	if t.reoffer {
		// Content one of the user's preseeded files holds, so the store is
		// sure to know it.
		nodes := l.files[u.id][t.class]
		h = l.held[nodes[l.rng.Intn(len(nodes))]]
	} else {
		h = l.hashes[i]
	}
	name := u.nextName("u")
	mk, err := doOK(tr, &protocol.Request{Op: protocol.OpMakeFile, Volume: u.root, Name: name})
	if err != nil {
		return err
	}
	u.add(mk.Node.ID, name, true)
	put, err := doOK(tr, &protocol.Request{
		Op: protocol.OpPutContent, Volume: u.root, Node: mk.Node.ID, Name: name,
		Hash: h, Size: uint64(size), CompressedSize: uint64(size),
	})
	if err != nil {
		return err
	}
	if put.Reused {
		l.reused++
		return nil
	}
	if t.reoffer {
		return fmt.Errorf("re-offered content %v was not deduplicated", h)
	}
	buf := l.bufs[t.class]
	l.stamp(buf, uint64(i))
	for part, lo := uint32(0), 0; lo < size; part, lo = part+1, lo+blob.PartSize {
		hi := min(lo+blob.PartSize, size)
		if _, err := doOK(tr, &protocol.Request{
			Op: protocol.OpPutPart, Upload: put.Upload, Part: part,
			Data: buf[lo:hi], Final: hi == size,
		}); err != nil {
			return err
		}
	}
	l.bytesUp += uint64(size)
	if !l.sampled[t.class] {
		l.sampled[t.class] = true
		l.uploaded = append(l.uploaded, stored{user: u, node: mk.Node.ID, hash: h, size: size})
	}
	return nil
}

// download fetches one preseeded file and checks its length. The bytes are
// not hashed here: that would put the benchmark's own SHA-1 (a quarter of the
// measured CPU when it was tried) into every rate of this workload.
// verifyStored checks the SHA-1s after the measured phase.
func (l *dataLoop) download(tr client.Transport, u *userModel, t transfer) error {
	nodes := l.files[u.id][t.class]
	n, err := fetchFile(tr, u.root, nodes[l.rng.Intn(len(nodes))], nil)
	if err != nil {
		return err
	}
	l.bytesDn += uint64(n)
	if n != dataClasses[t.class].size {
		l.badSize++
	}
	return nil
}

// fetchFile downloads one file — GetContent, then GetPart for every part of
// a multipart body — and returns its length. body, when set, receives the
// bytes in order.
func fetchFile(tr client.Transport, vol protocol.VolumeID, node protocol.NodeID, body func([]byte)) (int, error) {
	do := func(req *protocol.Request) (*protocol.Response, error) {
		resp, err := doOK(tr, req)
		if err == nil && body != nil {
			body(resp.Data)
		}
		return resp, err
	}
	resp, err := do(&protocol.Request{Op: protocol.OpGetContent, Volume: vol, Node: node})
	if err != nil {
		return 0, err
	}
	n := len(resp.Data)
	for i := uint32(0); i < resp.Parts; i++ {
		part, err := do(&protocol.Request{Op: protocol.OpGetPart, Volume: vol, Node: node, Part: i})
		if err != nil {
			return 0, err
		}
		n += len(part.Data)
	}
	return n, nil
}

// verifyStored downloads each file once more through the gateway, outside
// the measured phase, and returns how many came back with the wrong length
// or SHA-1. fault plants FaultFlipByte in the first body.
func verifyStored(env *tcpEnv, files []stored, fault string) (corrupted int, err error) {
	for i, f := range files {
		tr, err := env.dialGateway()
		if err != nil {
			return 0, err
		}
		h := sha1.New()
		flip := fault == FaultFlipByte && i == 0
		_, err = doOK(tr, &protocol.Request{Op: protocol.OpAuthenticate, Token: f.user.token})
		n := 0
		if err == nil {
			n, err = fetchFile(tr, f.user.root, f.node, func(part []byte) {
				if flip && len(part) > 0 {
					part[len(part)/2] ^= 1
					flip = false
				}
				h.Write(part)
			})
		}
		tr.Close() //nolint:errcheck
		if err != nil {
			return 0, fmt.Errorf("verifying node %d of user %d: %w", f.node, f.user.id, err)
		}
		var got protocol.Hash
		h.Sum(got[:0])
		if n != f.size || got != f.hash {
			corrupted++
		}
	}
	return corrupted, nil
}

// runTCPData is the large-message workload: per-byte cost (frame copies,
// Marshal/Unmarshal of Data, blob put/get, multipart) dominates and
// per-request overhead is diluted.
func runTCPData(o Options, r *Result) error {
	sz := r.Sizes
	env, err := openTCP(o.Seed, sz.Users)
	if err != nil {
		return err
	}
	defer env.close()

	// Preseed: a small pool of real contents per size class, referenced by
	// every user's files (the store is content-addressed, so the bytes are
	// held once).
	rng := rand.New(rand.NewSource(o.Seed))
	poolSize := min(poolPerClass, max(1, sz.Users/50))
	pool := make([][]protocol.Hash, len(dataClasses))
	for c, cl := range dataClasses {
		data := make([]byte, cl.size)
		for p := 0; p < poolSize; p++ {
			fill(rng, data)
			h := protocol.HashBytes(data)
			if err := env.cluster.Blob.PutObject(h.Hex(), data); err != nil {
				return err
			}
			pool[c] = append(pool[c], h)
		}
	}
	files := make(map[protocol.UserID][][]protocol.NodeID, len(env.users))
	held := make(map[protocol.NodeID]protocol.Hash)
	// verify names one file per distinct preseeded content, and later the
	// loops' sampled uploads: everything verifyStored re-downloads.
	var verify []stored
	referenced := make(map[protocol.Hash]bool)
	perClass := max(1, sz.FilesPerUser/len(dataClasses))
	for _, u := range env.users {
		files[u.id] = make([][]protocol.NodeID, len(dataClasses))
		for c, cl := range dataClasses {
			for i := 0; i < perClass; i++ {
				h := pool[c][rng.Intn(poolSize)]
				id, err := env.preseedFile(u, u.nextName("p"), h, uint64(cl.size))
				if err != nil {
					return err
				}
				files[u.id][c] = append(files[u.id][c], id)
				held[id] = h
				if !referenced[h] {
					referenced[h] = true
					verify = append(verify, stored{user: u, node: id, hash: h, size: cl.size})
				}
			}
		}
	}
	if err := env.listen(); err != nil {
		return err
	}

	parts := env.partition(sz.Conns)
	loopsState := make([]*dataLoop, sz.Conns)
	loops := make([]func(), sz.Conns)
	for c := range loopsState {
		lrng := rand.New(rand.NewSource(o.Seed*1000003 + int64(c) + 1))
		l := &dataLoop{
			env: env, users: parts[c], rng: lrng, loop: uint64(c + 1),
			seq: transferSequence(lrng, sz.OpsPerConn), files: files, held: held,
			rec: o.Spans, sampled: make([]bool, len(dataClasses)),
		}
		// Payloads and their SHA-1s are set-up work, not measured work.
		for _, cl := range dataClasses {
			buf := make([]byte, cl.size)
			fill(lrng, buf)
			l.bufs = append(l.bufs, buf)
		}
		for _, t := range l.seq {
			if !t.upload {
				continue
			}
			var h protocol.Hash
			if !t.reoffer {
				l.stamp(l.bufs[t.class], uint64(len(l.hashes)))
				h = protocol.HashBytes(l.bufs[t.class])
			}
			l.hashes = append(l.hashes, h)
		}
		loopsState[c], loops[c] = l, l.run
	}

	begin, end, d := env.measure(loops)

	var sent, notOK, up, down uint64
	var badSize, sessions int
	for c, l := range loopsState {
		if l.err != nil {
			return loopErr(c, l.err)
		}
		sent += l.requests
		notOK += l.notOK
		up += l.bytesUp
		down += l.bytesDn
		badSize += l.badSize
		sessions += l.sessions
		verify = append(verify, l.uploaded...)
	}

	measured := end.at.Sub(begin.at).Seconds()
	r.MeasuredSeconds, r.Loops = measured, sz.Conns
	r.Metrics["setup_s"] = begin.at.Sub(o.Start).Seconds()
	r.Metrics["ops_per_s"] = float64(sent) / measured
	r.Metrics["mb_per_s"] = float64(up+down) / 1e6 / measured
	r.processLayer(begin, end, sent)
	r.heapPerUser(sz.Users, env, loopsState)

	r.agree(sent, notOK, d)
	corrupted, err := verifyStored(env, verify, o.Fault)
	if err != nil {
		return err
	}
	r.check("download-sha1", badSize+corrupted == 0,
		"%d downloads in the loop had the wrong length; of %d files downloaded again after it, %d had the wrong length or SHA-1",
		badSize, len(verify), corrupted)
	r.registryLayers(d, env.cluster)
	r.Counts["wire.rt_small_ns"] = 2 * float64(sent)
	r.Counts["wire.loopback_rt_ns"] = 2 * float64(sent) // client to gateway, gateway to server
	r.Counts["wire.rt_1mb_ns"] = float64(up+down) / (1 << 20)
	r.Counts["blob.put_1mb_ns"] = float64(up) / (1 << 20)
	r.Counts["blob.get_1mb_ns"] = float64(down) / (1 << 20)
	r.Counts["gateway.place_ns"] = float64(sessions)
	delete(r.Counts, "blob.put_sized_ns") // real puts are priced per MB above

	if o.Fault == FaultDropNode {
		env.users[0].removeFile(0)
	}
	return verifyModels(r, env.dialGateway, env.users, sampledUsers)
}
