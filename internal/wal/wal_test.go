package wal

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"u1/internal/vfs"
)

// dir is where the MemFS tests keep their journal.
const dir = "/j"

func mustOpen(t *testing.T, fsys vfs.FS, dir string, opts Options) *Log {
	t.Helper()
	opts.FS = fsys
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

// writeFile replaces path's bytes with data and syncs them.
func writeFile(t testing.TB, fsys vfs.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, vfs.CreateTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, fsys vfs.FS, dir string) (lsns []uint64, payloads []string, dropped int64) {
	t.Helper()
	last, dropped, err := Replay(fsys, dir, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(lsns) > 0 && last != lsns[len(lsns)-1] {
		t.Fatalf("Replay last = %d, want %d", last, lsns[len(lsns)-1])
	}
	return lsns, payloads, dropped
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{Policy: FsyncPerOp})
	appendN(t, l, 25, "rec")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lsns, payloads, dropped := replayAll(t, fsys, dir)
	if len(lsns) != 25 || dropped != 0 {
		t.Fatalf("replayed %d records (dropped %d bytes), want 25/0", len(lsns), dropped)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, lsn, i+1)
		}
		if want := fmt.Sprintf("rec-%d", i); payloads[i] != want {
			t.Fatalf("record %d payload = %q, want %q", i, payloads[i], want)
		}
	}
}

func TestReopenContinuesLSNSequence(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{})
	appendN(t, l, 7, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, fsys, dir, Options{})
	if got := l.nextLSN; got != 8 {
		t.Fatalf("NextLSN after reopen = %d, want 8", got)
	}
	appendN(t, l, 3, "b")
	l.Close() //nolint:errcheck
	lsns, _, _ := replayAll(t, fsys, dir)
	if len(lsns) != 10 || lsns[9] != 10 {
		t.Fatalf("replayed %v, want LSNs 1..10", lsns)
	}
}

func TestSegmentRollAndTruncate(t *testing.T) {
	fsys := vfs.NewMemFS()
	// Tiny segments so every few records roll a file.
	l := mustOpen(t, fsys, dir, Options{SegmentBytes: 64})
	appendN(t, l, 40, "roll")
	segs, err := segments(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 40 appends at 64-byte roll", len(segs))
	}
	// A snapshot at LSN 20 releases every segment fully below it.
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	kept, _ := segments(fsys, dir)
	if len(kept) >= len(segs) {
		t.Fatalf("TruncateThrough removed nothing: %d -> %d segments", len(segs), len(kept))
	}
	l.Close() //nolint:errcheck
	lsns, _, _ := replayAll(t, fsys, dir)
	if len(lsns) == 0 || lsns[len(lsns)-1] != 40 {
		t.Fatalf("replay after truncation lost the tail: %v", lsns)
	}
	for _, lsn := range lsns {
		if lsn > 20 {
			return // records past the snapshot point survive
		}
	}
	t.Fatal("no post-snapshot records survived truncation")
}

// TestTornTailTruncatedRecord is the crash-shaped regression: a final record
// cut mid-frame is dropped on replay and every record before it survives.
func TestTornTailTruncatedRecord(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{Policy: FsyncPerOp})
	appendN(t, l, 10, "keep")
	l.Close() //nolint:errcheck

	segs, _ := segments(fsys, dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last frame: drop 5 bytes off the file end.
	if err := fsys.Truncate(path, int64(len(data)-5)); err != nil {
		t.Fatal(err)
	}

	lsns, _, dropped := replayAll(t, fsys, dir)
	if len(lsns) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(lsns))
	}
	if dropped == 0 {
		t.Fatal("torn bytes not reported as dropped")
	}
	// Reopen appends after the intact prefix; the torn frame never resurfaces.
	l = mustOpen(t, fsys, dir, Options{})
	if got := l.nextLSN; got != 10 {
		t.Fatalf("NextLSN after torn-tail reopen = %d, want 10", got)
	}
	appendN(t, l, 1, "fresh")
	l.Close() //nolint:errcheck
	lsns, payloads, dropped := replayAll(t, fsys, dir)
	if len(lsns) != 10 || dropped != 0 {
		t.Fatalf("post-repair replay: %d records, %d dropped bytes", len(lsns), dropped)
	}
	if payloads[9] != "fresh-0" {
		t.Fatalf("recovered tail record = %q", payloads[9])
	}
}

// TestTornTailBitFlip is the bit-rot regression: a flipped bit in the final
// record fails its CRC and the record is dropped, not delivered corrupted.
// It runs on the real disk, which is the one CorruptTail damages.
func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, vfs.OSFS{}, dir, Options{Policy: FsyncPerOp})
	appendN(t, l, 6, "bits")
	l.Close() //nolint:errcheck

	if err := CorruptTail(dir); err != nil {
		t.Fatal(err)
	}
	lsns, payloads, dropped := replayAll(t, vfs.OSFS{}, dir)
	if len(lsns) != 5 {
		t.Fatalf("replayed %d records after bit flip, want 5", len(lsns))
	}
	if dropped == 0 {
		t.Fatal("corrupt record not counted as dropped")
	}
	for i, p := range payloads {
		if want := fmt.Sprintf("bits-%d", i); p != want {
			t.Fatalf("surviving record %d = %q, want %q", i, p, want)
		}
	}
}

// TestTornTailDropsLaterSegments pins the gap rule: when a mid-journal
// segment is corrupt, the segments after it are unreachable (their LSNs
// would leave a hole) and replay must stop rather than resurrect them.
func TestTornTailDropsLaterSegments(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{SegmentBytes: 64})
	appendN(t, l, 30, "seg")
	l.Close() //nolint:errcheck
	segs, _ := segments(fsys, dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Corrupt the second segment's first frame.
	path := filepath.Join(dir, segName(segs[1]))
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0xFF
	writeFile(t, fsys, path, data)
	lsns, _, dropped := replayAll(t, fsys, dir)
	if len(lsns) == 0 {
		t.Fatal("first segment should replay intact")
	}
	if last := lsns[len(lsns)-1]; last >= segs[1] {
		t.Fatalf("replay crossed the corrupt segment: last LSN %d", last)
	}
	if dropped == 0 {
		t.Fatal("later segments not counted as dropped")
	}
}

func TestGroupCommitSyncCadence(t *testing.T) {
	l := mustOpen(t, vfs.NewMemFS(), dir, Options{Policy: FsyncGroupCommit})
	appendN(t, l, 2*groupEvery+1, "gc")
	appends, syncs := l.Stats()
	if appends != 2*groupEvery+1 {
		t.Fatalf("appends = %d, want %d", appends, 2*groupEvery+1)
	}
	if syncs != 2 { // after the 8th and 16th append; the 17th is pending
		t.Fatalf("group-commit syncs = %d, want 2", syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, syncs = l.Stats(); syncs != 3 {
		t.Fatalf("Close did not flush the pending batch: syncs = %d", syncs)
	}
}

// TestAppendAllocatesNothing pins the reused frame buffer: under the async
// policy an append is a copy into the Log's buffer and one write, with no
// allocation, and a record larger than the kept bound is not retained. It
// runs on the real disk, to pin that the vfs seam costs an append nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	l := mustOpen(t, vfs.OSFS{}, t.TempDir(), Options{Policy: FsyncAsync})
	defer l.Close() //nolint:errcheck
	payload := []byte("make_node 0123456789abcdef0123456789abcdef")
	if _, err := l.Append(payload); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f times per record, want 0", allocs)
	}
	if _, err := l.Append(make([]byte, maxKeptFrame)); err != nil {
		t.Fatal(err)
	}
	if l.frame != nil {
		t.Errorf("Append kept a %d-byte frame buffer, bound %d", cap(l.frame), maxKeptFrame)
	}
}

func TestPolicyParseAndCost(t *testing.T) {
	for _, p := range []Policy{FsyncPerOp, FsyncGroupCommit, FsyncAsync} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("flush-sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	flush := vfs.ModeledFlush
	if FsyncPerOp.SyncCost(flush) <= FsyncGroupCommit.SyncCost(flush) {
		t.Error("per-op sync must cost more than group commit")
	}
	if FsyncAsync.SyncCost(flush) != 0 {
		t.Error("async sync must cost nothing")
	}
	if FsyncGroupCommit.SyncCost(flush) <= 0 {
		t.Error("group commit must carry a non-zero amortized cost")
	}
	if FsyncPerOp.SyncCost(flush) != 5*time.Millisecond {
		t.Errorf("per-op cost drifted: %v", FsyncPerOp.SyncCost(flush))
	}
}

// TestCrashKeepsWrittenRecords: a process crash (Log.Crash) loses no written
// record, and a power cut after it (MemFS.Crash) loses exactly the ones
// never synced.
func TestCrashKeepsWrittenRecords(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{Policy: FsyncGroupCommit})
	appendN(t, l, 12, "c")
	l.Crash() // no sync, no clean close
	lsns, _, dropped := replayAll(t, fsys, dir)
	if len(lsns) != 12 || dropped != 0 {
		t.Fatalf("post-crash replay: %d records, %d dropped", len(lsns), dropped)
	}
	fsys.Crash()
	if lsns, _, _ = replayAll(t, fsys, dir); len(lsns) != groupEvery {
		t.Fatalf("post-power-cut replay: %d records, want the %d synced", len(lsns), groupEvery)
	}
}

// TestSegmentRollSurvivesPowerCut pins the directory sync of segment
// creation: under per-op fsync, every acknowledged record comes back after a
// power cut, across several segment rolls — the first segment included.
func TestSegmentRollSurvivesPowerCut(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{Policy: FsyncPerOp, SegmentBytes: 64})
	appendN(t, l, 20, "ack")
	if segs, _ := segments(fsys, dir); len(segs) < 4 {
		t.Fatalf("only %d segments: want at least 3 rolls", len(segs))
	}
	l.Crash()
	fsys.Crash()
	l = mustOpen(t, fsys, dir, Options{Policy: FsyncPerOp, SegmentBytes: 64})
	defer l.Close() //nolint:errcheck
	lsns, payloads, _ := replayAll(t, fsys, dir)
	if len(lsns) != 20 {
		t.Fatalf("power cut lost acknowledged records: %d of 20 replayed", len(lsns))
	}
	for i, p := range payloads {
		if want := fmt.Sprintf("ack-%d", i); p != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
}

// FuzzReplayTornTail drives the frame scanner with arbitrary mutations of a
// valid journal tail: whatever the damage, replay must never error, never
// deliver a corrupted payload for the intact prefix, and never deliver more
// records than were written.
func FuzzReplayTornTail(f *testing.F) {
	f.Add(uint8(3), int64(-1), uint8(0))
	f.Add(uint8(10), int64(5), uint8(0xFF))
	f.Add(uint8(1), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, n uint8, cut int64, flip uint8) {
		records := int(n%16) + 1
		fsys := vfs.NewMemFS()
		l, err := Open(dir, Options{Policy: FsyncPerOp, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("p-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close() //nolint:errcheck

		segs, _ := segments(fsys, dir)
		path := filepath.Join(dir, segName(segs[len(segs)-1]))
		data, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate the tail: truncate by cut bytes and/or XOR the last byte.
		if cut > 0 && cut < int64(len(data)) {
			data = data[:int64(len(data))-cut]
		}
		if flip != 0 && len(data) > 0 {
			data[len(data)-1] ^= flip
		}
		writeFile(t, fsys, path, data)

		var got int
		_, _, err = Replay(fsys, dir, func(lsn uint64, payload []byte) error {
			if want := fmt.Sprintf("p-%d", lsn-1); string(payload) != want {
				t.Fatalf("record %d replayed corrupted: %q", lsn, payload)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("Replay errored on damaged tail: %v", err)
		}
		if got > records {
			t.Fatalf("replayed %d records, only %d written", got, records)
		}
	})
}
