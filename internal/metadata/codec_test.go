package metadata

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
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
// unlink of a three-node subtree, and the two share records.
func TestRecordRoundTrip(t *testing.T) {
	fsys := vfs.NewMemFS()
	s := openDurable(t, fsys, Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncAsync})
	defer s.Close() //nolint:errcheck
	populate(t, s)
	seen := map[recKind]int{}
	for i := 0; i < s.NumShards(); i++ {
		_, _, err := wal.Replay(fsys, s.ShardWALDir(i), func(lsn uint64, payload []byte) error {
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

	for _, bad := range [][]byte{nil, {0}, {byte(recAcceptShare) + 1}, {'{'}, encodeRecords(unlink)[:5], append(encodeRecords(unlink), 0)} {
		if err := decodePayload(bad, &rec); err == nil {
			t.Errorf("decodePayload(%x) succeeded", bad)
		}
	}
	share := encodeRecords(journalRecord{Kind: recCreateShare, Share: protocol.ShareInfo{ID: 4, Volume: 7, SharedBy: 1, SharedTo: 2}})
	for k := firstV1Share; k <= lastV1Share; k++ {
		share[0] = byte(k)
		if err := decodePayload(share, &rec); !errors.Is(err, errV1Record) {
			t.Errorf("a share record of retired kind %d: err = %v, want errV1Record", k, err)
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

// TestSnapshotChecksumRefusesEveryFlip flips each byte of a small snapshot
// in turn and requires readSnapshot to refuse every one, and Open to refuse
// a store whose snapshot fails its checksum with an error naming the file.
func TestSnapshotChecksumRefusesEveryFlip(t *testing.T) {
	s := New(Config{Shards: 1})
	root := mustUser(t, s, 1)
	mustUser(t, s, 2)
	f, err := s.MakeFile(1, root.ID, 0, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.MakeContent(1, root.ID, f.ID, protocol.HashBytes([]byte("f")), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateShare(1, root.ID, 2, "for-2", true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, s.shards[0], 9); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	if _, err := readSnapshot(newShard(0, DefaultDeltaLogLimit, nil), snap); err != nil {
		t.Fatalf("the intact snapshot: %v", err)
	}
	for i := range snap {
		snap[i] ^= 0xff
		if _, err := readSnapshot(newShard(0, DefaultDeltaLogLimit, nil), snap); err == nil {
			t.Errorf("a snapshot with byte %d of %d flipped read without error", i, len(snap))
		}
		snap[i] ^= 0xff
	}

	fsys := vfs.NewMemFS()
	d := openDurable(t, fsys, Config{Shards: 4})
	populate(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(storeRoot, "shard-0", snapshotFile)
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	file, err := fsys.OpenFile(path, vfs.CreateTrunc)
	if err == nil {
		_, err = file.Write(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Open(Config{Shards: 4, Durability: storeRoot, FS: fsys}); err == nil {
		r.Close() //nolint:errcheck
		t.Error("Open read a snapshot whose checksum fails")
	} else if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("Open of a snapshot whose checksum fails: %v, want an error naming %s and its checksum", err, path)
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, seeded with
// the records of this format's golden and of format version 1's: it must
// never panic, must refuse a hostile Removed count before allocating for it,
// and every successful decode must land on a decode→encode fixed point.
func FuzzDecodeRecord(f *testing.F) {
	for _, golden := range []string{formatGolden, formatV1Golden} {
		payloads, _ := goldenRecords(f, golden)
		for _, p := range payloads {
			f.Add(p)
		}
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

// jsonEraGolden is the durable format a JSON-era build wrote for populate,
// and formatV1Golden the one a format version 1 build wrote: each the
// format.golden of its day, kept verbatim.
const (
	jsonEraGolden  = "testdata/json-era.golden"
	formatV1Golden = "testdata/format-v1.golden"
)

// requireOldStoreRefused builds two store directories from an old golden's
// sections — one with only its journals, one with only its snapshots — and
// requires Open to refuse each with an error containing format, the old
// format's name, instead of reading it as garbage. payload turns a WAL line
// into its record, and snapshot a snapshot line into the bytes it adds to
// the shard's snapFile.
func requireOldStoreRefused(t *testing.T, golden, format, snapFile string, payload, snapshot func(line string) []byte) {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS()
	snaps, journals := "/snapshots", "/journals"
	var (
		shard   int
		section string
		logs    = map[int]*wal.Log{}
		files   = map[int][]byte{}
	)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if _, err := fmt.Sscanf(line, "# shard %d %s", &shard, &section); err == nil {
			continue
		}
		switch section {
		case "wal":
			l := logs[shard]
			if l == nil {
				if l, err = wal.Open(filepath.Join(journals, fmt.Sprintf("shard-%d", shard), "wal"), wal.Options{FS: fsys}); err != nil {
					t.Fatal(err)
				}
				logs[shard] = l
			}
			if _, err := l.Append(payload(line)); err != nil {
				t.Fatal(err)
			}
		case "snapshot":
			files[shard] = append(files[shard], snapshot(line)...)
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for shard, b := range files {
		dir := filepath.Join(snaps, fmt.Sprintf("shard-%d", shard))
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.OpenFile(filepath.Join(dir, snapFile), vfs.CreateTrunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	for name, dir := range map[string]string{"snapshots": snaps, "journals": journals} {
		s, err := Open(Config{Shards: 4, Durability: dir, FS: fsys})
		if err == nil {
			s.Close() //nolint:errcheck
			t.Errorf("Open of a store with %s %s succeeded", format, name)
			continue
		}
		if !strings.Contains(err.Error(), format) {
			t.Errorf("Open of %s %s: %v, want an error naming the old format", format, name, err)
		}
	}
}

// TestJSONEraStoreRefused requires Open to refuse a JSON-era store's
// snapshots and its journals by name.
func TestJSONEraStoreRefused(t *testing.T) {
	requireOldStoreRefused(t, jsonEraGolden, "JSON-era", jsonSnapshotFile,
		func(line string) []byte { _, payload, _ := strings.Cut(line, " "); return []byte(payload) },
		func(line string) []byte { return []byte(line) })
}

// TestFormatV1StoreRefused requires Open to refuse a format version 1
// store's snapshots and its journals, whose share records each went to both
// shards of their share, by name.
func TestFormatV1StoreRefused(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatalf("%s line %q: %v", formatV1Golden, s, err)
		}
		return b
	}
	requireOldStoreRefused(t, formatV1Golden, "version 1", snapshotFile,
		func(line string) []byte { f := strings.Fields(line); return unhex(f[len(f)-1]) },
		unhex)
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
	durable := openDurable(t, vfs.NewMemFS(), Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncAsync})
	defer durable.Close() //nolint:errcheck
	if got := perOp(durable); got > mem {
		t.Errorf("journaled MakeContent allocates %.0f objects, in-memory %.0f", got, mem)
	}
}
