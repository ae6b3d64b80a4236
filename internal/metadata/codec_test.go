package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"u1/internal/protocol"
	"u1/internal/wal"
	"u1/internal/wire"
)

// encodeRecords encodes recs back to back, as an outbox holds them.
func encodeRecords(recs ...journalRecord) []byte {
	var w wire.Writer
	for i := range recs {
		encodeRecord(&w, &recs[i])
	}
	return w.Bytes()
}

// decodeRecords decodes exactly n records from b.
func decodeRecords(t *testing.T, b []byte, n int) []journalRecord {
	t.Helper()
	r := wire.NewReader(b)
	out := make([]journalRecord, n)
	for i := range out {
		if err := decodeRecord(r, &out[i]); err != nil {
			t.Fatalf("record %d of %d: %v", i, n, err)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes after %d records", r.Remaining(), n)
	}
	return out
}

// requireRoundTrip checks that rec encodes, decodes deep-equal, and encodes
// again to the same bytes.
func requireRoundTrip(t *testing.T, rec journalRecord) {
	t.Helper()
	first := encodeRecords(rec)
	var got journalRecord
	if err := decodePayload(first, &got); err != nil {
		t.Fatalf("%v: decode: %v", rec.Kind, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("%v: decoded\n  %+v\nwant\n  %+v", rec.Kind, got, rec)
	}
	if again := encodeRecords(got); !bytes.Equal(again, first) {
		t.Fatalf("%v: re-encoded %x, first %x", rec.Kind, again, first)
	}
}

// TestRecordRoundTrip covers every record populate journals, a hand-built
// unlink of a three-node subtree, and the three share records.
func TestRecordRoundTrip(t *testing.T) {
	s := openDurable(t, t.TempDir(), Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncAsync})
	defer s.Close() //nolint:errcheck
	populate(t, s)
	seen := map[recKind]int{}
	for i := 0; i < s.NumShards(); i++ {
		_, _, err := wal.Replay(s.ShardWALDir(i), func(lsn uint64, payload []byte) error {
			var rec journalRecord
			if err := decodePayload(payload, &rec); err != nil {
				return fmt.Errorf("record %d: %w", lsn, err)
			}
			if again := encodeRecords(rec); !bytes.Equal(again, payload) {
				return fmt.Errorf("record %d (%v) re-encodes to %x, journaled %x", lsn, rec.Kind, again, payload)
			}
			requireRoundTrip(t, rec)
			seen[rec.Kind]++
			return nil
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	for _, k := range []recKind{recCreateUser, recCreateUDF, recMakeNode, recMakeContent, recMove,
		recUnlink, recDeleteVolume, recCreateShare, recAcceptShare} {
		if seen[k] == 0 {
			t.Errorf("populate journaled no %v record", k)
		}
	}

	h := protocol.HashBytes([]byte("subtree"))
	requireRoundTrip(t, journalRecord{Kind: recUnlink, VolID: 7, Gen: 1 << 40, Removed: []protocol.NodeInfo{
		{ID: 30, Volume: 7, Parent: 3, Kind: protocol.KindDir, Name: "dir", Generation: 12},
		{ID: 31, Volume: 7, Parent: 30, Kind: protocol.KindFile, Name: "a.txt", Hash: h, Size: 5 << 20, Generation: 13},
		{ID: 32, Volume: 7, Parent: 30, Kind: protocol.KindFile, Name: "ü.bin", Size: 1, Generation: 14},
	}})
	share := protocol.ShareInfo{ID: 4, Volume: 7, SharedBy: 1, SharedTo: 2, Name: "for-2", ReadOnly: true}
	requireRoundTrip(t, journalRecord{Kind: recCreateShare, Share: share})
	share.Accepted = true
	requireRoundTrip(t, journalRecord{Kind: recAcceptShare, Share: share})
	requireRoundTrip(t, journalRecord{Kind: recDropShare, Share: protocol.ShareInfo{ID: 4, SharedTo: 2}})
}

// TestDecodeRecordReusesAndRefuses pins the decoder's ownership and hostile-
// input rules: a decode overwrites every field and reuses the caller's
// Removed array, and an unlink claiming more nodes than bytes is refused
// before anything is allocated for them.
func TestDecodeRecordReusesAndRefuses(t *testing.T) {
	unlink := journalRecord{Kind: recUnlink, VolID: 3, Gen: 9, Removed: []protocol.NodeInfo{{ID: 5, Name: "x"}, {ID: 6, Name: "y"}}}
	var rec journalRecord
	if err := decodePayload(encodeRecords(unlink), &rec); err != nil {
		t.Fatal(err)
	}
	array := &rec.Removed[0]
	if err := decodePayload(encodeRecords(journalRecord{Kind: recMakeNode, Node: protocol.NodeInfo{ID: 8}}), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.VolID != 0 || rec.Gen != 0 || len(rec.Removed) != 0 || rec.Node.ID != 8 {
		t.Fatalf("decode left fields of the previous record: %+v", rec)
	}
	if err := decodePayload(encodeRecords(unlink), &rec); err != nil {
		t.Fatal(err)
	}
	if &rec.Removed[0] != array {
		t.Error("decode allocated a new Removed array where the caller's had room")
	}

	var w wire.Writer
	w.Byte(byte(recUnlink))
	w.Uvarint(3)
	w.Uvarint(9)
	w.Uvarint(1 << 40)
	hostile := w.Bytes()
	var fresh journalRecord
	allocs := testing.AllocsPerRun(20, func() {
		fresh = journalRecord{}
		if err := decodePayload(hostile, &fresh); !errors.Is(err, errCount) {
			t.Fatalf("hostile count: err = %v, want errCount", err)
		}
	})
	if allocs != 0 || fresh.Removed != nil {
		t.Errorf("hostile count allocated %.0f times before the refusal", allocs)
	}

	for _, bad := range [][]byte{nil, {0}, {byte(recDropShare) + 1}, {'{'}, encodeRecords(unlink)[:5], append(encodeRecords(unlink), 0)} {
		if err := decodePayload(bad, &rec); err == nil {
			t.Errorf("decodePayload(%x) succeeded", bad)
		}
	}
}

// TestSnapshotRoundTrip writes a shard's snapshot, reads it into an empty
// shard, and requires the same fingerprint, LSN and bytes — for an owner
// shard and for a replica.
func TestSnapshotRoundTrip(t *testing.T) {
	s := New(Config{Shards: 4, Regions: 2, DeltaLogLimit: 4})
	populate(t, s)
	s.DrainReplication()
	for i := 0; i < s.NumShards(); i++ {
		other := 1 - s.RegionOf(i)
		for name, sh := range map[string]*shard{"owner": s.shards[i], "replica": s.repl.state[other].replicas[i]} {
			var buf bytes.Buffer
			if err := writeSnapshot(&buf, sh, 42); err != nil {
				t.Fatalf("shard %d %s: write: %v", i, name, err)
			}
			got := newShard(i, sh.deltaLogLimit, nil)
			lsn, err := readSnapshot(got, buf.Bytes())
			if err != nil {
				t.Fatalf("shard %d %s: read: %v", i, name, err)
			}
			if lsn != 42 {
				t.Errorf("shard %d %s: LSN %d, want 42", i, name, lsn)
			}
			if fingerprint(got) != fingerprint(sh) {
				t.Errorf("shard %d %s: fingerprint changed across the snapshot", i, name)
			}
			var again bytes.Buffer
			if err := writeSnapshot(&again, got, 42); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Errorf("shard %d %s: the read shard snapshots differently (err %v)", i, name, err)
			}
			if _, err := readSnapshot(newShard(i, 0, nil), buf.Bytes()[:buf.Len()-1]); err == nil {
				t.Errorf("shard %d %s: a truncated snapshot read without error", i, name)
			}
		}
	}
	var future wire.Writer
	future.String(snapshotMagic)
	future.Byte(snapshotVersion + 1)
	if _, err := readSnapshot(newShard(0, 0, nil), future.Bytes()); err == nil {
		t.Error("a snapshot of an unknown version read without error")
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must never
// panic, must refuse a hostile Removed count before allocating for it, and
// every successful decode must land on a decode→encode fixed point.
func FuzzDecodeRecord(f *testing.F) {
	payloads, _ := goldenRecords(f)
	for _, p := range payloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec journalRecord
		err := decodePayload(data, &rec)
		if errors.Is(err, errCount) && rec.Removed != nil {
			t.Fatalf("refused count after allocating %d nodes", cap(rec.Removed))
		}
		if err != nil {
			return
		}
		first := encodeRecords(rec)
		var again journalRecord
		if err := decodePayload(first, &again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("decode→encode→decode changed the record:\n  %+v\n  %+v", rec, again)
		}
		if second := encodeRecords(again); !bytes.Equal(second, first) {
			t.Fatalf("encoding is not a fixed point: %x then %x", first, second)
		}
	})
}

// jsonEraGolden is the durable format a JSON-era build wrote for populate:
// the previous format.golden, kept verbatim.
const jsonEraGolden = "testdata/json-era.golden"

// TestJSONEraStoreRefused builds a store directory from JSON-era bytes — once
// with the snapshots, once with the journals — and requires Open to refuse
// it by name instead of reading it as garbage.
func TestJSONEraStoreRefused(t *testing.T) {
	data, err := os.ReadFile(jsonEraGolden)
	if err != nil {
		t.Fatal(err)
	}
	snaps, journals := t.TempDir(), t.TempDir()
	var (
		shard   int
		section string
		logs    = map[int]*wal.Log{}
	)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if _, err := fmt.Sscanf(line, "# shard %d %s", &shard, &section); err == nil {
			continue
		}
		switch section {
		case "wal":
			l := logs[shard]
			if l == nil {
				if l, err = wal.Open(filepath.Join(journals, fmt.Sprintf("shard-%d", shard), "wal"), wal.Options{}); err != nil {
					t.Fatal(err)
				}
				logs[shard] = l
			}
			_, payload, _ := strings.Cut(line, " ")
			if _, err := l.Append([]byte(payload)); err != nil {
				t.Fatal(err)
			}
		case "snapshot":
			dir := filepath.Join(snaps, fmt.Sprintf("shard-%d", shard))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, jsonSnapshotFile), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, dir := range map[string]string{"snapshots": snaps, "journals": journals} {
		s, err := Open(Config{Shards: 4, Durability: dir})
		if err == nil {
			s.Close() //nolint:errcheck
			t.Errorf("Open of a store with JSON-era %s succeeded", name)
			continue
		}
		if !strings.Contains(err.Error(), "JSON-era") {
			t.Errorf("Open of JSON-era %s: %v, want an error naming the old format", name, err)
		}
	}
}

// TestJournaledMutationAllocatesLikeInMemory is the allocation pin of the
// journal path: on a durable, async, single-region store a MakeContent
// allocates no more objects than on an in-memory store — the record's
// encoding and its WAL append allocate nothing.
func TestJournaledMutationAllocatesLikeInMemory(t *testing.T) {
	perOp := func(s *Store) float64 {
		root := mustUser(t, s, 1)
		f, err := s.MakeFile(1, root.ID, 0, "f")
		if err != nil {
			t.Fatal(err)
		}
		hashes := [2]protocol.Hash{protocol.HashBytes([]byte("a")), protocol.HashBytes([]byte("b"))}
		next := 0
		op := func() {
			if _, _, _, err := s.MakeContent(1, root.ID, f.ID, hashes[next%2], 1024); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 2*DefaultDeltaLogLimit; i++ { // warm-up: grow the delta log past a trim
			op()
		}
		return testing.AllocsPerRun(1000, op)
	}
	mem := perOp(New(Config{Shards: 4}))
	durable := openDurable(t, t.TempDir(), Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncAsync})
	defer durable.Close() //nolint:errcheck
	if got := perOp(durable); got > mem {
		t.Errorf("journaled MakeContent allocates %.0f objects, in-memory %.0f", got, mem)
	}
}
