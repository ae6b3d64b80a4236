package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
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
	l := mustOpen(t, fsys, dir, Options{})
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
	l := mustOpen(t, fsys, dir, Options{})
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
	l := mustOpen(t, vfs.OSFS{}, dir, Options{})
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

// TestDamagedSegmentRefusesReplay pins the damage rule: a corrupt frame in a
// segment before the last is not a torn tail — its records were synced and
// acknowledged — so replay refuses with an error naming that segment's file
// and delivers no record from it or any later segment.
func TestDamagedSegmentRefusesReplay(t *testing.T) {
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
	var lsns []uint64
	_, _, err = Replay(fsys, dir, func(lsn uint64, _ []byte) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Replay over a damaged middle segment: err = %v, want one naming %s", err, path)
	}
	if len(lsns) == 0 || lsns[len(lsns)-1] >= segs[1] {
		t.Fatalf("Replay delivered LSNs %v: want the first segment's, none from %d on", lsns, segs[1])
	}
}

// TestSyncThroughFlushesOnce pins the one sync path: Append never syncs, a
// wait flushes every record appended so far, a wait a flush already covered
// flushes nothing, and Close syncs only what no flush covered.
func TestSyncThroughFlushesOnce(t *testing.T) {
	l := mustOpen(t, vfs.NewMemFS(), dir, Options{})
	appendN(t, l, 17, "gc")
	if _, syncs := l.Stats(); syncs != 0 {
		t.Fatalf("%d syncs after 17 appends, want 0", syncs)
	}
	for _, lsn := range []uint64{5, 17, 1} {
		if err := l.SyncThrough(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if appends, syncs := l.Stats(); appends != 17 || syncs != 1 {
		t.Fatalf("appends, syncs = %d, %d after waits through 5, 17 and 1; want 17, 1", appends, syncs)
	}
	appendN(t, l, 1, "late")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, syncs := l.Stats(); syncs != 2 {
		t.Fatalf("Close did not flush the uncovered record: syncs = %d", syncs)
	}
}

// TestClosedLogRefuses: after Close, Append fails with ErrClosed and a wait
// Close's sync covered succeeds; after Crash, a wait no flush covered fails
// with ErrClosed, and nothing starts a new segment past the end.
func TestClosedLogRefuses(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{})
	appendN(t, l, 3, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.SyncThrough(3); err != nil {
		t.Fatalf("a wait Close covered: %v", err)
	}

	l = mustOpen(t, fsys, dir, Options{})
	appendN(t, l, 1, "b")
	if err := l.SyncThrough(4); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, "c")
	l.Crash()
	if err := l.SyncThrough(4); err != nil {
		t.Fatalf("a wait a flush covered before Crash: %v", err)
	}
	if err := l.SyncThrough(5); !errors.Is(err, ErrClosed) {
		t.Fatalf("an uncovered wait after Crash: %v, want ErrClosed", err)
	}
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Crash: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after Crash: %v", err)
	}
	if lsns, _, _ := replayAll(t, fsys, dir); len(lsns) != 5 {
		t.Fatalf("replayed LSNs %v, want 1..5", lsns)
	}
}

// failSyncFS is a MemFS whose file syncs fail with EIO once fail is set.
type failSyncFS struct {
	*vfs.MemFS
	fail atomic.Bool
}

func (f *failSyncFS) OpenFile(name string, flag int) (vfs.File, error) {
	file, err := f.MemFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return failSyncFile{file, f}, nil
}

type failSyncFile struct {
	vfs.File
	fs *failSyncFS
}

func (f failSyncFile) Sync() error {
	if f.fs.fail.Load() {
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestFailedFlushRefusesEveryWait: after a failed flush, every wait no
// earlier flush covered fails with its error — even once the disk heals —
// and so does every Append; a wait an earlier flush covered still succeeds.
func TestFailedFlushRefusesEveryWait(t *testing.T) {
	fsys := &failSyncFS{MemFS: vfs.NewMemFS()}
	l := mustOpen(t, fsys, dir, Options{})
	appendN(t, l, 2, "ok")
	if err := l.SyncThrough(2); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, "lost")
	fsys.fail.Store(true)
	if err := l.SyncThrough(3); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a failing flush: %v, want EIO", err)
	}
	fsys.fail.Store(false)
	if err := l.SyncThrough(4); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a wait the failed flush covered: %v, want EIO", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append after a failed flush: %v, want EIO", err)
	}
	if err := l.SyncThrough(2); err != nil {
		t.Fatalf("a wait an earlier flush covered: %v", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after a failed flush: %v, want EIO", err)
	}
}

// TestAppendAllocatesNothing pins the reused frame buffer: under the async
// policy an append is a copy into the Log's buffer and one write, with no
// allocation, and a record larger than the kept bound is not retained. It
// runs on the real disk, to pin that the vfs seam costs an append nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	l := mustOpen(t, vfs.OSFS{}, t.TempDir(), Options{})
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
// record, and a power cut after it (MemFS.Crash) loses exactly the ones no
// flush covered.
func TestCrashKeepsWrittenRecords(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{})
	appendN(t, l, 8, "c")
	if err := l.SyncThrough(8); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, "d")
	l.Crash() // no sync, no clean close
	lsns, _, dropped := replayAll(t, fsys, dir)
	if len(lsns) != 12 || dropped != 0 {
		t.Fatalf("post-crash replay: %d records, %d dropped", len(lsns), dropped)
	}
	fsys.Crash()
	if lsns, _, _ = replayAll(t, fsys, dir); len(lsns) != 8 {
		t.Fatalf("post-power-cut replay: %d records, want the 8 a flush covered", len(lsns))
	}
}

// TestSegmentRollSurvivesPowerCut pins the directory sync of segment
// creation: every record acknowledged by its wait comes back after a power
// cut, across several segment rolls — the first segment included.
func TestSegmentRollSurvivesPowerCut(t *testing.T) {
	fsys := vfs.NewMemFS()
	l := mustOpen(t, fsys, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("ack-%d", i)))
		if err == nil {
			err = l.SyncThrough(lsn)
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if segs, _ := segments(fsys, dir); len(segs) < 4 {
		t.Fatalf("only %d segments: want at least 3 rolls", len(segs))
	}
	l.Crash()
	fsys.Crash()
	l = mustOpen(t, fsys, dir, Options{SegmentBytes: 64})
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

// FuzzReplayTornTail damages one segment of a journal of 64-byte segments —
// truncated by cut bytes and/or its last byte XORed with flip. Damage in the
// last segment is a torn tail: replay keeps every record of the earlier
// segments, never errors, never delivers a corrupted payload and never more
// records than were written. Damage in an earlier segment is an error naming
// it, and no record from it or a later segment is delivered.
func FuzzReplayTornTail(f *testing.F) {
	f.Add(uint8(3), int64(-1), uint8(0), uint8(0))
	f.Add(uint8(10), int64(5), uint8(0xFF), uint8(0))
	f.Add(uint8(1), int64(0), uint8(1), uint8(0))
	f.Add(uint8(12), int64(20), uint8(0), uint8(1))
	f.Add(uint8(15), int64(0), uint8(0x40), uint8(2))
	f.Fuzz(func(t *testing.T, n uint8, cut int64, flip uint8, seg uint8) {
		records := int(n%16) + 1
		fsys := vfs.NewMemFS()
		l, err := Open(dir, Options{SegmentBytes: 64, FS: fsys})
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
		k := int(seg) % len(segs)
		path := filepath.Join(dir, segName(segs[k]))
		data, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damaged := false
		if cut > 0 && cut < int64(len(data)) {
			data, damaged = data[:int64(len(data))-cut], true
		}
		if flip != 0 && len(data) > 0 {
			data[len(data)-1] ^= flip
			damaged = true
		}
		writeFile(t, fsys, path, data)

		var got int
		_, _, err = Replay(fsys, dir, func(lsn uint64, payload []byte) error {
			if want := fmt.Sprintf("p-%d", lsn-1); string(payload) != want {
				t.Fatalf("record %d replayed corrupted: %q", lsn, payload)
			}
			if damaged && k < len(segs)-1 && lsn >= segs[k] {
				t.Fatalf("record %d delivered from or past damaged segment %s", lsn, path)
			}
			got++
			return nil
		})
		switch {
		case damaged && k < len(segs)-1:
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("damage in segment %d of %d: err = %v, want one naming %s", k+1, len(segs), err, path)
			}
		case err != nil:
			t.Fatalf("Replay errored on damaged tail: %v", err)
		case got > records:
			t.Fatalf("replayed %d records, only %d written", got, records)
		case got < int(segs[len(segs)-1])-1:
			t.Fatalf("replayed %d records, fewer than the %d before the last segment", got, segs[len(segs)-1]-1)
		}
	})
}
