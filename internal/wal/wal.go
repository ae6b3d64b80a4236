// Package wal implements the write-ahead log under the durable metadata
// tier: a segmented append-only journal of CRC-framed records. Each metadata
// shard owns one Log; mutations append a logical record before they are
// acknowledged, and recovery replays the journal (on top of the latest
// snapshot) to rebuild the shard state a crash destroyed.
//
// The journal is a directory of segment files named by the LSN of their
// first record (0000000000000001.wal, ...). Records are framed as
//
//	[4-byte length][4-byte CRC32C][8-byte LSN][payload]
//
// where the CRC covers the LSN and payload. Replay walks the segments in LSN
// order. A truncated or corrupt frame in the last segment is its torn tail —
// the half-written record of the crash itself, never acknowledged — and is
// dropped without losing any record before it. A roll syncs a segment before
// the next one starts, so the same damage in an earlier segment is an error
// naming it: its records were acknowledged, and none after them is read.
//
// Append frames each record in a buffer the Log owns and reuses under its
// mutex (kept only while it is at most 64 KB, like wire.FrameWriter's encode
// buffer), so appending allocates nothing: the caller's payload is copied
// into the frame and never retained.
//
// Every disk call goes through a vfs.FS (Options.FS; Replay's argument), and
// a new segment's name is synced before its first record.
//
// Append only writes; a roll syncs the full segment it closes, and Close the
// last one. SyncThrough is the one wait for a flush: one flush, made outside
// the Log's mutex, serves every waiter it covers (group commit). After a
// failed flush the Log refuses every append and every wait no earlier flush
// covered, since the disk may have dropped what it held (PostgreSQL's rule
// since 2018). Whether a commit waits is its owner's fsync policy
// (policy.go), which the Log never reads.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"u1/internal/vfs"
)

// headerSize is the fixed frame prefix: length, CRC, LSN.
const headerSize = 4 + 4 + 8

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segSuffix names journal segment files.
const segSuffix = ".wal"

// maxKeptFrame bounds the frame buffer a Log keeps between appends, so one
// large record does not stay allocated for the life of the journal.
const maxKeptFrame = 64 << 10

// DefaultSegmentBytes rolls segments at 1 MiB: small enough that snapshot
// truncation frees space promptly, large enough that rolls stay rare.
const DefaultSegmentBytes = 1 << 20

// ErrClosed is what Append, and a SyncThrough no flush covered, return once
// the Log is closed or crashed.
var ErrClosed = errors.New("wal: log closed")

// Options parameterizes a Log.
type Options struct {
	// Policy is not read: the Log flushes the same way under every policy,
	// and whether a commit waits for a flush is its owner's choice.
	//
	// Deprecated: set nothing; the field stays for callers that still do.
	Policy Policy
	// SegmentBytes rolls to a new segment file once the active one exceeds
	// this size (0 → DefaultSegmentBytes).
	SegmentBytes int64
	// FS is the disk the journal lives on (nil → vfs.OSFS).
	FS vfs.FS
}

// Log is one append-only journal. Safe for concurrent use; in the metadata
// tier appends additionally serialize under the owning shard's write lock,
// so journal order always matches apply order, while waits run outside it.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	flushed sync.Cond // broadcast when a flush ends; L is &mu
	f       vfs.File
	size    int64
	nextLSN uint64
	// durable is the last LSN a flush covered: every record through it is
	// on stable storage.
	durable  uint64
	flushing bool   // a SyncThrough is syncing f outside mu
	err      error  // a failed flush, or ErrClosed: what Append and an uncovered wait return
	frame    []byte // Append's frame buffer, reused from record to record

	appends uint64
	syncs   uint64
}

// Open opens (or creates) the journal directory and positions the log to
// append after the last intact record. It does not replay — Replay is a
// separate read-only pass so recovery can interleave snapshot loading.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = vfs.OSFS{}
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}
	l.flushed.L = &l.mu

	segs, err := segments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		// Scan the last segment to find the end of its intact prefix; a torn
		// tail left by a crash is cut here so new appends never interleave
		// with garbage.
		last := segs[len(segs)-1]
		path := filepath.Join(dir, segName(last))
		data, err := opts.FS.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		intact, lastLSN, _ := scan(data, nil)
		if err := opts.FS.Truncate(path, int64(intact)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		f, err := opts.FS.OpenFile(path, vfs.AppendOnly)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s: %w", path, err)
		}
		// An empty tail segment continues at its base.
		l.f, l.size, l.nextLSN = f, int64(intact), max(lastLSN+1, last)
	}
	return l, nil
}

// Append frames payload as the next record and writes it to the active
// segment, and returns its LSN. It does not sync: the record is durable once
// a flush covers it (SyncThrough).
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rollLocked(); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	var hdr [headerSize]byte // filled in place below
	buf := append(append(l.frame[:0], hdr[:]...), payload...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], lsn)
	crc := crc32.Checksum(buf[8:], castagnoli)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	if cap(buf) <= maxKeptFrame {
		l.frame = buf
	} else {
		l.frame = nil
	}
	if _, err := l.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: appending record %d: %w", lsn, err)
	}
	l.size += int64(len(buf))
	l.nextLSN = lsn + 1
	l.appends++
	return lsn, nil
}

// rollLocked opens the active segment, rolling to a fresh file when the
// current one passed the size threshold, or returns l.err. Called with l.mu
// held. The full segment is synced and closed once no flush is syncing it; a
// new segment's name is synced before its first record: fsync(2) of the
// file alone would not keep the name through a power cut.
func (l *Log) rollLocked() error {
	if l.f != nil && l.size >= l.opts.SegmentBytes {
		l.idleLocked()
	}
	switch {
	case l.err != nil:
		return l.err
	case l.f != nil && l.size < l.opts.SegmentBytes:
		return nil
	case l.f != nil:
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing full segment: %w", err)
		}
	}
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := l.opts.FS.OpenFile(path, vfs.CreateAppend)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	l.f, l.size = f, 0
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
	}
	return nil
}

// SyncThrough returns once a flush covered record lsn: at once if one
// already did. A waiter finding a flush in flight waits for it; the first
// waiter it did not cover flushes every record appended so far, outside the
// Log's mutex. A failed flush, Close or Crash fails every waiter no earlier
// flush covered (Close's own sync covers every record before it).
func (l *Log) SyncThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing && l.durable < lsn {
		l.flushed.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	f, through := l.f, l.nextLSN-1
	l.flushing = true
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	l.flushing = false
	l.flushed.Broadcast()
	return l.synced(through, err)
}

// syncLocked syncs the active segment in place unless a flush already
// covered every record in it. Called with l.mu held and no flush in flight.
func (l *Log) syncLocked() error {
	if l.durable >= l.nextLSN-1 {
		return nil
	}
	return l.synced(l.nextLSN-1, l.f.Sync())
}

// synced records the outcome of a sync of the records through through.
// Called with l.mu held.
func (l *Log) synced(through uint64, err error) error {
	if err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.durable = max(l.durable, through)
	l.syncs++
	return nil
}

// idleLocked waits until no flush is syncing the active segment. Called with
// l.mu held.
func (l *Log) idleLocked() {
	for l.flushing {
		l.flushed.Wait()
	}
}

// Stats returns cumulative appends and syncs, for the wal.* counters.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Close syncs and closes the active segment; every later Append, and every
// wait its sync did not cover, fails with ErrClosed (or with the failed
// flush's error, which Close returns too). A second Close, or one after
// Crash, returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idleLocked()
	if l.f == nil {
		l.err = cmp.Or(l.err, ErrClosed)
		return nil
	}
	err := l.err
	if err == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.err = nil, cmp.Or(l.err, ErrClosed)
	return err
}

// Crash drops the file handle without syncing — the SIGKILL stand-in the
// crash drill uses — once no flush is syncing it, and closes the Log. Bytes
// already written survive in the page cache exactly as they would across a
// real process death; only the handle is lost.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idleLocked()
	if l.f != nil {
		l.f.Close() //nolint:errcheck
		l.f = nil
	}
	l.err = cmp.Or(l.err, ErrClosed)
}

// TruncateThrough removes every segment whose records are all covered by a
// snapshot at lsn: a segment may go once the next segment starts at or below
// lsn+1. The active tail segment is always kept.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := segments(l.opts.FS, l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= lsn+1 {
			if err := l.opts.FS.Remove(filepath.Join(l.dir, segName(segs[i]))); err != nil {
				return fmt.Errorf("wal: truncating segment %d: %w", segs[i], err)
			}
		}
	}
	return nil
}

// Replay streams every record in dir on fsys to fn in LSN order and returns
// the last LSN delivered and the bytes of the last segment's torn tail. An
// earlier segment that is damaged or ends short of the next one's first LSN
// is an error naming it, returned before any of its records is delivered.
func Replay(fsys vfs.FS, dir string, fn func(lsn uint64, payload []byte) error) (last uint64, dropped int64, err error) {
	segs, err := segments(fsys, dir)
	if err != nil {
		return 0, 0, err
	}
	for i, base := range segs {
		path := filepath.Join(dir, segName(base))
		data, err := fsys.ReadFile(path)
		if err != nil {
			return last, 0, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		if i+1 < len(segs) {
			if intact, segLast, _ := scan(data, nil); intact < len(data) || segLast+1 != segs[i+1] {
				return last, 0, fmt.Errorf("wal: segment %s is damaged: intact to byte %d of %d and LSN %d of %d; only the last segment may end torn",
					path, intact, len(data), segLast, segs[i+1]-1)
			}
		}
		intact, segLast, err := scan(data, fn)
		if err != nil {
			return last, 0, err
		}
		last, dropped = max(last, segLast), int64(len(data)-intact)
	}
	return last, dropped, nil
}

// readFrame decodes one frame from buf, reporting (lsn, payload, frame size,
// intact).
func readFrame(buf []byte) (lsn uint64, payload []byte, n int, ok bool) {
	if len(buf) < headerSize {
		return 0, nil, 0, false
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	total := headerSize + int(length)
	if total < headerSize || len(buf) < total {
		return 0, nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if crc32.Checksum(buf[8:total], castagnoli) != crc {
		return 0, nil, 0, false
	}
	lsn = binary.LittleEndian.Uint64(buf[8:16])
	return lsn, buf[16:total], total, true
}

// scan walks a segment's frames up to the first short or corrupt one, handing
// each record to fn unless fn is nil, and returns the byte length of that
// intact prefix and its last LSN.
func scan(data []byte, fn func(lsn uint64, payload []byte) error) (intact int, last uint64, err error) {
	for intact < len(data) {
		lsn, payload, n, ok := readFrame(data[intact:])
		if !ok {
			break
		}
		if fn != nil {
			if err := fn(lsn, payload); err != nil {
				return intact, last, err
			}
		}
		intact, last = intact+n, lsn
	}
	return intact, last, nil
}

// segments lists the segment base LSNs in dir in ascending order; a missing
// dir has none.
func segments(fsys vfs.FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []uint64
	for _, name := range names {
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func segName(base uint64) string {
	return fmt.Sprintf("%016x%s", base, segSuffix)
}

// CorruptTail flips one bit in the last byte of the newest non-empty segment
// on the real disk, the one call around vfs: the benchmark's planted bit-rot,
// to prove a damaged final record is dropped, not replayed.
func CorruptTail(dir string) error {
	segs, err := segments(vfs.OSFS{}, dir)
	if err != nil {
		return err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, segName(segs[i]))
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if fi.Size() == 0 {
			continue
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, fi.Size()-1); err != nil && err != io.EOF {
			return err
		}
		b[0] ^= 0x40
		_, err = f.WriteAt(b, fi.Size()-1)
		return err
	}
	return fmt.Errorf("wal: no non-empty segment in %s", dir)
}
