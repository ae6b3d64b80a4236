package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"u1/benchmark/spans"
	"u1/benchmark/spec"
	"u1/internal/client"
	"u1/internal/protocol"
)

// opKind enumerates the client operations of the tcp-meta script.
type opKind uint8

const (
	opSync opKind = iota
	opListVolumes
	opListShares
	opUpload
	opMkdir
	opMove
	opUnlink
	opDownload // staircase only: one 64 KB GetContent
	numOpKinds
)

var opKindNames = [numOpKinds]string{"Sync", "ListVolumes", "ListShares", "UploadSized", "Mkdir", "Move", "Unlink", "Download"}

func (k opKind) String() string { return opKindNames[k] }

// isRead splits tcp-meta's latencies into the two classes it reports, so a
// read-path gain that taxes writers shows.
func (k opKind) isRead() bool { return k <= opListShares || k == opDownload }

// metaMix is tcp-meta's operation mix per 100 warm operations.
var metaMix = [numOpKinds]int{
	opSync: 35, opListVolumes: 15, opListShares: 10,
	opUpload: 20, opMkdir: 8, opMove: 6, opUnlink: 6,
}

// uploadSize is the declared size of a tcp-meta upload: MakeFile, PutContent
// and one PutPart, no payload.
const uploadSize = 4 << 10

// opSequence builds n operations in the given mix with a fixed composition:
// whole blocks of 100 shuffled by rng, so every seed runs exactly the same
// number of each kind and only their order differs.
func opSequence(rng *rand.Rand, n int, mix [numOpKinds]int) []opKind {
	block := make([]opKind, 0, 100)
	for k, share := range mix {
		for i := 0; i < share; i++ {
			block = append(block, opKind(k))
		}
	}
	seq := make([]opKind, 0, n+len(block))
	for len(seq) < n {
		seq = append(seq, block...)
	}
	seq = seq[:n]
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// userModel is the load generator's own record of one account: what it
// created minus what it deleted. The final check compares it against a
// from-scratch Sync.
type userModel struct {
	id    protocol.UserID
	token string
	root  protocol.VolumeID
	files []protocol.NodeID          // live files, in creation order
	nodes map[protocol.NodeID]string // every live node the generator made → name
	blob  protocol.NodeID            // staircase: the 64 KB file to download
	seq   int                        // name counter
}

func (u *userModel) add(id protocol.NodeID, name string, file bool) {
	u.nodes[id] = name
	if file {
		u.files = append(u.files, id)
	}
}

func (u *userModel) rename(id protocol.NodeID, name string) { u.nodes[id] = name }

func (u *userModel) removeFile(i int) {
	delete(u.nodes, u.files[i])
	last := len(u.files) - 1
	u.files[i] = u.files[last]
	u.files = u.files[:last]
}

func (u *userModel) nextName(prefix string) string {
	u.seq++
	return fmt.Sprintf("%s%d-%d", prefix, u.id, u.seq)
}

// session is one storage-protocol session at some depth of the stack: the
// client over a transport, or the equivalent calls made directly against a
// lower layer.
type session interface {
	// setSpan names the client-operation span and request id in flight, so
	// the session parents its request spans under it.
	setSpan(parent spans.ID, request uint64)
	listVolumes() error
	listShares() error
	sync() error
	upload(name string, h protocol.Hash, size uint64) (protocol.NodeID, error)
	mkdir(name string) (protocol.NodeID, error)
	move(node protocol.NodeID, name string) error
	unlink(node protocol.NodeID) error
	download(node protocol.NodeID) error
	close() error
}

// executor opens sessions for a user.
type executor interface {
	open(u *userModel, parent spans.ID, request uint64) (session, error)
}

// scriptRun is one closed loop: sessions of SessionOps warm operations each
// against users it alone owns, every coldEvery-th session cold (connect and
// close only). It times every client operation around its own call.
type scriptRun struct {
	exec      executor
	users     []*userModel
	seq       []opKind
	rng       *rand.Rand
	rec       *spans.Recorder
	coldEvery int
	loop      uint64 // high bits of request ids, unique per loop

	lat      [numOpKinds][]float64 // microseconds, per kind
	sessions int
	err      error
}

func (s *scriptRun) run() {
	for k := range s.lat {
		s.lat[k] = make([]float64, 0, len(s.seq)*metaMix[k]/100+spec.SessionOps)
	}
	next, request := 0, s.loop<<40
	for next < len(s.seq) {
		u := s.users[s.rng.Intn(len(s.users))]
		s.sessions++
		request++
		span := s.rec.Begin("session", 0, request)
		sess, err := s.exec.open(u, span, request)
		if err != nil {
			s.err = fmt.Errorf("opening session for user %d: %w", u.id, err)
			return
		}
		if s.coldEvery == 0 || s.sessions%s.coldEvery != 0 {
			for n := 0; n < spec.SessionOps && next < len(s.seq); n++ {
				request++
				if err := s.step(sess, u, s.seq[next], span, request); err != nil {
					s.err = fmt.Errorf("%v for user %d: %w", s.seq[next], u.id, err)
					return
				}
				next++
			}
		}
		if err := sess.close(); err != nil {
			s.err = fmt.Errorf("closing session of user %d: %w", u.id, err)
			return
		}
		s.rec.End(span)
	}
}

func (s *scriptRun) step(sess session, u *userModel, k opKind, parent spans.ID, request uint64) error {
	// Choose operands before the timer starts.
	var name string
	var h protocol.Hash
	var idx int
	switch k {
	case opUpload:
		name = u.nextName("f")
		fill(s.rng, h[:])
	case opMkdir:
		name = u.nextName("d")
	case opMove:
		name = u.nextName("m")
		idx = s.rng.Intn(len(u.files))
	case opUnlink:
		idx = s.rng.Intn(len(u.files))
	}
	span := s.rec.Begin(clientSpanNames[k], parent, request)
	sess.setSpan(span, request)
	var id protocol.NodeID
	var err error
	start := time.Now()
	switch k {
	case opSync:
		err = sess.sync()
	case opListVolumes:
		err = sess.listVolumes()
	case opListShares:
		err = sess.listShares()
	case opUpload:
		id, err = sess.upload(name, h, uploadSize)
	case opMkdir:
		id, err = sess.mkdir(name)
	case opMove:
		err = sess.move(u.files[idx], name)
	case opUnlink:
		err = sess.unlink(u.files[idx])
	case opDownload:
		err = sess.download(u.blob)
	}
	d := time.Since(start)
	s.rec.End(span)
	if err != nil {
		return err
	}
	s.lat[k] = append(s.lat[k], float64(d)/1e3)
	switch k {
	case opUpload:
		u.add(id, name, true)
	case opMkdir:
		u.add(id, name, false)
	case opMove:
		u.rename(u.files[idx], name)
	case opUnlink:
		u.removeFile(idx)
	}
	return nil
}

var clientSpanNames = func() (names [numOpKinds]string) {
	for k := range names {
		names[k] = "client." + opKind(k).String()
	}
	return names
}()

// clientExec runs sessions through client.Client over whatever transport
// dial returns: the DirectTransport, a TCP connection to one API server, or
// one through the gateway.
type clientExec struct {
	dial func() (client.Transport, error)
	rec  *spans.Recorder
	// requests and notOK sum the wrapped transports' counters over the
	// sessions closed so far: the load generator's own request tally.
	requests, notOK uint64
}

type clientSession struct {
	exec *clientExec
	cli  *client.Client
	tr   *spans.Transport
	root protocol.VolumeID
}

func (e *clientExec) open(u *userModel, parent spans.ID, request uint64) (session, error) {
	inner, err := e.dial()
	if err != nil {
		return nil, err
	}
	tr := &spans.Transport{Inner: inner, Rec: e.rec, Parent: parent, Request: request}
	cli := client.New(tr)
	if err := cli.Connect(u.token); err != nil {
		tr.Close() //nolint:errcheck
		return nil, err
	}
	return &clientSession{exec: e, cli: cli, tr: tr, root: u.root}, nil
}

func (s *clientSession) setSpan(parent spans.ID, request uint64) {
	s.tr.Parent, s.tr.Request = parent, request
}

func (s *clientSession) listVolumes() error { _, err := s.cli.ListVolumes(); return err }
func (s *clientSession) listShares() error  { _, err := s.cli.ListShares(); return err }
func (s *clientSession) sync() error        { _, err := s.cli.Sync(s.root); return err }

func (s *clientSession) upload(name string, h protocol.Hash, size uint64) (protocol.NodeID, error) {
	node, _, err := s.cli.UploadSized(s.root, 0, name, h, size, size)
	return node.ID, err
}

func (s *clientSession) mkdir(name string) (protocol.NodeID, error) {
	node, err := s.cli.Mkdir(s.root, 0, name)
	return node.ID, err
}

func (s *clientSession) move(node protocol.NodeID, name string) error {
	_, err := s.cli.Move(s.root, node, 0, name)
	return err
}

func (s *clientSession) unlink(node protocol.NodeID) error { return s.cli.Unlink(s.root, node) }

func (s *clientSession) download(node protocol.NodeID) error {
	_, err := s.cli.Download(s.root, node)
	return err
}

func (s *clientSession) close() error {
	err := s.cli.Close()
	s.exec.requests += s.tr.Requests
	s.exec.notOK += s.tr.NotOK
	return err
}

// verifyModels opens a fresh client for each sampled user and checks that a
// from-scratch Sync equals the load generator's model of that account:
// created minus deleted nodes, by id and name.
func verifyModels(r *Result, dial func() (client.Transport, error), users []*userModel, sample int) error {
	if sample > len(users) {
		sample = len(users)
	}
	bad, detail := 0, ""
	for i := 0; i < sample; i++ {
		u := users[i*len(users)/sample]
		tr, err := dial()
		if err != nil {
			return err
		}
		cli := client.New(tr)
		if err := cli.Connect(u.token); err != nil {
			tr.Close() //nolint:errcheck
			return err
		}
		_, err = cli.Sync(u.root)
		m, _ := cli.Mirror(u.root)
		cli.Close() //nolint:errcheck
		if err != nil {
			return err
		}
		if diff := modelDiff(u, m); diff != "" {
			bad++
			if detail == "" {
				detail = fmt.Sprintf("user %d: %s", u.id, diff)
			}
		}
	}
	r.check("model-sync", bad == 0, "%d of %d sampled users differ from the model; %s", bad, sample, detail)
	return nil
}

// modelDiff returns "" when the mirror holds exactly the model's nodes. The
// volume's root directory is the one node the generator did not make.
func modelDiff(u *userModel, m *client.Mirror) string {
	var missing, extra, renamed []protocol.NodeID
	for id, name := range u.nodes {
		got, ok := m.Nodes[id]
		switch {
		case !ok:
			missing = append(missing, id)
		case got.Name != name:
			renamed = append(renamed, id)
		}
	}
	for id, n := range m.Nodes {
		if _, ok := u.nodes[id]; !ok && !(n.Kind == protocol.KindDir && n.Name == "/") {
			extra = append(extra, id)
		}
	}
	if len(missing)+len(extra)+len(renamed) == 0 {
		return ""
	}
	for _, ids := range [][]protocol.NodeID{missing, extra, renamed} {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return fmt.Sprintf("missing on server %v, not in model %v, names differ %v", missing, extra, renamed)
}
