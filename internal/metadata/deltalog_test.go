package metadata

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"u1/internal/protocol"
	"u1/internal/wire"
)

// deltaModel is the delta log as a plain slice of decoded entries under the
// retention rule: past limit entries the oldest half goes (at least one),
// and the horizon moves to the last generation dropped. A negative limit
// keeps no entries and moves the horizon to every generation.
type deltaModel struct {
	limit          int
	gen            protocol.Generation
	droppedThrough protocol.Generation
	gens           []protocol.Generation
	log            []protocol.DeltaEntry
}

func (m *deltaModel) add(gen protocol.Generation, n protocol.NodeInfo, deleted bool) {
	m.gen = gen
	if m.limit < 0 {
		m.droppedThrough = gen
		return
	}
	m.gens = append(m.gens, gen)
	m.log = append(m.log, protocol.DeltaEntry{Node: n, Deleted: deleted})
	if len(m.log) <= m.limit {
		return
	}
	drop := max(m.limit/2, 1)
	m.droppedThrough = m.gens[drop-1]
	m.gens, m.log = m.gens[drop:], m.log[drop:]
}

// delta is the model's answer to GetDelta(fromGen).
func (m *deltaModel) delta(fromGen protocol.Generation) ([]protocol.DeltaEntry, error) {
	switch {
	case fromGen >= m.gen:
		return nil, nil
	case fromGen < m.droppedThrough:
		return nil, ErrDeltaTruncated
	}
	var out []protocol.DeltaEntry
	for i, g := range m.gens {
		if g > fromGen {
			out = append(out, m.log[i])
		}
	}
	return out, nil
}

// listed reads a listing out entry by entry, names included, and gives its
// buffer back, as a response's release does. A listing that does not read to
// its end is an error.
func listed(l protocol.DeltaList) ([]protocol.DeltaEntry, error) {
	var out []protocol.DeltaEntry
	var e protocol.DeltaEntry
	c := l.Cursor()
	for {
		name, ok := c.Next(&e)
		if !ok {
			break
		}
		e.Node.Name = string(name)
		out = append(out, e)
	}
	resp := protocol.AcquireResponse()
	resp.Deltas = l
	protocol.ReleaseResponse(resp)
	if len(out) != l.Len() {
		return out, fmt.Errorf("listing of %d entries read %d", l.Len(), len(out))
	}
	return out, nil
}

// getDelta is Store.GetDelta with its listing read out (listed).
func getDelta(s *Store, user protocol.UserID, vol protocol.VolumeID, from protocol.Generation) ([]protocol.DeltaEntry, protocol.Generation, error) {
	l, gen, err := s.GetDelta(user, vol, from)
	out, lerr := listed(l)
	return out, gen, errors.Join(err, lerr)
}

// fromScratch is Store.GetFromScratch with its listing read out (listed).
func fromScratch(s *Store, user protocol.UserID, vol protocol.VolumeID) ([]protocol.DeltaEntry, protocol.Generation, error) {
	l, gen, err := s.GetFromScratch(user, vol)
	out, lerr := listed(l)
	return out, gen, errors.Join(err, lerr)
}

// TestDeltaLogMatchesModel drives a seeded mix of makes, content updates,
// moves and subtree unlinks through one volume at several log limits, and
// after every op asks GetDelta at every generation up to the current one:
// each answer, truncation included, must be the model's. Halfway through,
// the shard takes a snapshot round trip (copyShard out and back), which must
// change no answer.
func TestDeltaLogMatchesModel(t *testing.T) {
	const ops = 160
	for _, limit := range []int{1, 2, 3, 7, 512, -1} {
		t.Run(fmt.Sprint("limit=", limit), func(t *testing.T) {
			s := New(Config{Shards: 2, DeltaLogLimit: limit})
			vol := mustUser(t, s, 1).ID
			m := &deltaModel{limit: limit}
			rng := rand.New(rand.NewSource(int64(limit) + 11))
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					sh := s.shards[s.ShardFor(1)]
					tmp := newShard(sh.id, sh.deltaLogLimit, nil)
					copyShard(sh, nil, tmp)
					copyShard(tmp, nil, sh)
				}
				deltaOp(t, s, vol, rng, m, op)
				for from := protocol.Generation(0); from <= m.gen; from++ {
					got, gen, err := getDelta(s, 1, vol, from)
					want, wantErr := m.delta(from)
					if !errors.Is(err, wantErr) {
						t.Fatalf("op %d: GetDelta(%d) err %v, model %v", op, from, err, wantErr)
					}
					if gen != m.gen || !slices.Equal(got, want) {
						t.Fatalf("op %d: GetDelta(%d) = %d entries at gen %d, model %d at gen %d:\n  got  %+v\n  want %+v",
							op, from, len(got), gen, len(want), m.gen, got, want)
					}
				}
			}
		})
	}
}

// deltaOp applies one random mutation to vol and records in m what it logs.
// A refused op (a move into its own subtree) logs nothing.
func deltaOp(t *testing.T, s *Store, vol protocol.VolumeID, rng *rand.Rand, m *deltaModel, op int) {
	t.Helper()
	listing, _, err := fromScratch(s, 1, vol)
	if err != nil {
		t.Fatal(err)
	}
	var dirs, files, nonRoot []protocol.NodeInfo
	for _, e := range listing {
		switch {
		case e.Node.Parent == 0:
			dirs = append(dirs, e.Node)
			continue
		case e.Node.Kind == protocol.KindDir:
			dirs = append(dirs, e.Node)
		default:
			files = append(files, e.Node)
		}
		nonRoot = append(nonRoot, e.Node)
	}
	pick := func(from []protocol.NodeInfo) protocol.NodeInfo { return from[rng.Intn(len(from))] }
	name := fmt.Sprint("n", op)
	var n protocol.NodeInfo
	switch k := rng.Intn(10); {
	case k < 3 || len(nonRoot) == 0:
		n, err = s.MakeFile(1, vol, pick(dirs).ID, name)
	case k < 5:
		n, err = s.MakeDir(1, vol, pick(dirs).ID, name)
	case k < 7 && len(files) > 0:
		h := protocol.HashBytes([]byte(name))
		n, _, _, err = s.MakeContent(1, vol, pick(files).ID, h, uint64(rng.Intn(1<<20)))
	case k < 9:
		n, err = s.Move(1, vol, pick(nonRoot).ID, pick(dirs).ID, name)
		if errors.Is(err, protocol.ErrBadRequest) {
			return
		}
	default:
		removed, gen, _, err := s.Unlink(1, vol, pick(nonRoot).ID)
		if err != nil {
			t.Fatalf("op %d: Unlink: %v", op, err)
		}
		for _, r := range removed {
			m.add(gen, r, true)
		}
		return
	}
	if err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	m.add(n.Generation, n, false)
}

// goldenSnapshots returns the snapshot bytes of formatGolden, one per shard.
func goldenSnapshots(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var snaps [][]byte
	inSnap := false
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			inSnap = strings.HasSuffix(line, " snapshot")
			if inSnap {
				snaps = append(snaps, nil)
			}
			continue
		}
		if !inSnap {
			continue
		}
		b, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("golden snapshot line %q: %v", line, err)
		}
		snaps[len(snaps)-1] = append(snaps[len(snaps)-1], b...)
	}
	return snaps
}

// badLogSnapshots returns snapshots of one volume whose log readSnapshot
// must refuse: generations that decrease, and a last entry cut short.
func badLogSnapshots() map[string][]byte {
	snap := func(entries func(*wire.Writer), n int) []byte {
		sh := newShard(0, DefaultDeltaLogLimit, nil)
		vr := &volumeRow{info: protocol.VolumeInfo{ID: 1, Owner: 1, Generation: 9}, root: 1}
		var e wire.Writer
		entries(&e)
		vr.log = &deltaLog{buf: e.Bytes(), at: make([]uint32, n)}
		sh.volumes[1] = vr
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, sh, 1); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	node := protocol.NodeInfo{ID: 2, Volume: 1, Parent: 1, Kind: protocol.KindFile, Name: "f"}
	return map[string][]byte{
		"decreasing generations": snap(func(e *wire.Writer) {
			encodeLogEntry(e, 5, node, false)
			encodeLogEntry(e, 4, node, true)
		}, 2),
		"entry cut short": snap(func(e *wire.Writer) {
			encodeLogEntry(e, 5, node, false)
			e.Uvarint(6)
			e.Uvarint(uint64(node.ID))
		}, 2),
	}
}

// TestReadSnapshotRefusesBadLog requires readSnapshot to refuse a delta log
// whose generations decrease or whose entries do not decode.
func TestReadSnapshotRefusesBadLog(t *testing.T) {
	for name, snap := range badLogSnapshots() {
		if _, err := readSnapshot(newShard(0, DefaultDeltaLogLimit, nil), snap); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
}

// sealSnapshot appends body's checksum, as writeSnapshot does.
func sealSnapshot(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.Checksum(body, castagnoli))
}

// FuzzReadSnapshot feeds arbitrary bytes, sealed with a valid checksum so
// they reach the decoder, to the snapshot reader. It must never panic.
// Every delta log it accepts must decode entry by entry, in nondecreasing
// generations, at the offsets it indexed. An accepted snapshot
// must re-encode to bytes that read back and re-encode byte for byte, with
// every log's bytes unchanged from the input. And each volume must answer
// GetDelta at every logged generation as a linear scan of its log does.
func FuzzReadSnapshot(f *testing.F) {
	// Each seed is a snapshot's body: its checksum is the seal.
	for _, snap := range goldenSnapshots(f) {
		f.Add(snap[:len(snap)-4])
	}
	for _, snap := range badLogSnapshots() {
		f.Add(snap[:len(snap)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sh := newShard(0, DefaultDeltaLogLimit, nil)
		lsn, err := readSnapshot(sh, sealSnapshot(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeSnapshot(&first, sh, lsn); err != nil {
			t.Fatal(err)
		}
		again := newShard(0, DefaultDeltaLogLimit, nil)
		if _, err := readSnapshot(again, first.Bytes()); err != nil {
			t.Fatalf("re-encoded snapshot does not read: %v", err)
		}
		var second bytes.Buffer
		if err := writeSnapshot(&second, again, lsn); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n  %x\n  %x", first.Bytes(), second.Bytes())
		}
		for id, vr := range sh.volumes {
			before, _ := vr.log.entries()
			if after, _ := again.volumes[id].log.entries(); !bytes.Equal(after, before) {
				t.Fatalf("volume %d: log bytes changed across a re-encode", id)
			}
			gens, entries := scanLog(t, vr)
			scan := &deltaModel{gen: vr.info.Generation, droppedThrough: vr.droppedThrough, gens: gens, log: entries}
			for _, from := range gens {
				l, err := vr.delta(from)
				got, lerr := listed(l)
				want, wantErr := scan.delta(from)
				if !errors.Is(err, wantErr) || lerr != nil || !slices.Equal(got, want) {
					t.Fatalf("volume %d: delta(%d) = %d entries, %v; the scan says %d, %v", id, from, len(got), err, len(want), wantErr)
				}
			}
		}
	})
}

// scanLog decodes vr's log front to back without its index, requiring every
// entry to decode at the offset logAt records for it, generations never to
// decrease, and the entries to fill the log exactly.
func scanLog(t *testing.T, vr *volumeRow) ([]protocol.Generation, []protocol.DeltaEntry) {
	t.Helper()
	buf, logAt := vr.log.entries()
	r := wire.NewReader(buf)
	gens := make([]protocol.Generation, len(logAt))
	entries := make([]protocol.DeltaEntry, len(logAt))
	for i, at := range logAt {
		if off := len(r.Consumed()); off != int(at) {
			t.Fatalf("volume %d: entry %d indexed at %d, decodes at %d", vr.info.ID, i, at, off)
		}
		gens[i], entries[i] = decodeLogEntry(r)
		if i > 0 && gens[i] < gens[i-1] {
			t.Fatalf("volume %d: accepted a log whose generations decrease (%d after %d)", vr.info.ID, gens[i], gens[i-1])
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("volume %d: accepted a log that does not decode (err %v, %d bytes left)", vr.info.ID, r.Err(), r.Remaining())
	}
	return gens, entries
}

// BenchmarkGetDelta serves GetDelta from a full 512-entry log to a client
// one generation behind (the common incremental sync) and to one fifty
// behind, releasing each answer as the API server does once it is sent.
func BenchmarkGetDelta(b *testing.B) {
	s, vol, gen := fullLog(b)
	for _, behind := range []protocol.Generation{1, 50} {
		b.Run(fmt.Sprint("behind=", behind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp := protocol.AcquireResponse()
				deltas, _, err := s.GetDelta(1, vol, gen-behind)
				if err != nil || deltas.Len() != int(behind) {
					b.Fatalf("GetDelta: %d entries, %v", deltas.Len(), err)
				}
				resp.Deltas = deltas
				protocol.ReleaseResponse(resp)
			}
		})
	}
}

// fullLog builds a store whose one volume has a full 512-entry delta log
// and returns the volume and its generation.
func fullLog(tb testing.TB) (*Store, protocol.VolumeID, protocol.Generation) {
	s := New(Config{Shards: 1, DeltaLogLimit: 512})
	vol, err := s.CreateUser(1)
	if err != nil {
		tb.Fatal(err)
	}
	var gen protocol.Generation
	for i := 0; i < 512; i++ {
		n, err := s.MakeFile(1, vol.ID, 0, fmt.Sprintf("file-%03d.txt", i))
		if err != nil {
			tb.Fatal(err)
		}
		gen = n.Generation
	}
	return s, vol.ID, gen
}

// TestReleasedGetDeltaAllocatesNothing pins the read's cost: a GetDelta
// answer copied out of the log into a pooled buffer and released with its
// response allocates nothing, however far behind the caller is.
func TestReleasedGetDeltaAllocatesNothing(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on)")
	}
	s, vol, gen := fullLog(t)
	for _, behind := range []protocol.Generation{1, 50} {
		if allocs := testing.AllocsPerRun(200, func() {
			resp := protocol.AcquireResponse()
			resp.Deltas, _, _ = s.GetDelta(1, vol, gen-behind)
			protocol.ReleaseResponse(resp)
		}); allocs != 0 {
			t.Errorf("a released answer %d behind allocates %.0f times, want 0", behind, allocs)
		}
	}
}

// poolsKeep reports whether a sync.Pool hands back what was just put into
// it; under the race detector it drops a quarter of all puts on purpose.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if got, _ := p.Get().(*int); got != x {
			return false
		}
	}
	return true
}

// BenchmarkGetFromScratch lists a 200-node volume (the root, 9 files in it
// and 19 directories of 9 files each) from scratch, releasing each answer as
// the API server does once it is sent.
func BenchmarkGetFromScratch(b *testing.B) {
	s := New(Config{Shards: 1, DeltaLogLimit: -1})
	vol, err := s.CreateUser(1)
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d <= 19; d++ {
		dir := protocol.NodeID(0)
		if d > 0 {
			n, err := s.MakeDir(1, vol.ID, 0, fmt.Sprintf("dir-%02d", d))
			if err != nil {
				b.Fatal(err)
			}
			dir = n.ID
		}
		for f := 0; f < 9; f++ {
			if _, err := s.MakeFile(1, vol.ID, dir, fmt.Sprintf("file-%03d.txt", 10*d+f)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp := protocol.AcquireResponse()
		deltas, _, err := s.GetFromScratch(1, vol.ID)
		if err != nil || deltas.Len() != 200 {
			b.Fatalf("GetFromScratch: %d entries, %v", deltas.Len(), err)
		}
		resp.Deltas = deltas
		protocol.ReleaseResponse(resp)
	}
}
