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
// order and stops at the first frame that is truncated or fails its CRC: a
// torn tail — the half-written record of the crash itself — is dropped
// without losing any record before it. A record that was never fully
// appended was by construction never acknowledged to a client, so dropping
// it is exactly the no-double-apply half of the recovery invariant.
//
// Append frames each record in a buffer the Log owns and reuses under its
// mutex (kept only while it is at most 64 KB, like wire.FrameWriter's encode
// buffer), so appending allocates nothing: the caller's payload is copied
// into the frame and never retained.
//
// Sync policy is configurable (per-op, group-commit, async) and carries a
// deterministic service-time cost model so the request path can charge
// fsync overhead to protocol.Cost without the simulated latency depending on
// host disk speed.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// Options parameterizes a Log.
type Options struct {
	// Policy is the fsync policy (the zero value is FsyncPerOp).
	Policy Policy
	// SegmentBytes rolls to a new segment file once the active one exceeds
	// this size (0 → DefaultSegmentBytes).
	SegmentBytes int64
}

// Log is one append-only journal. Safe for concurrent use; in the metadata
// tier appends additionally serialize under the owning shard's write lock,
// so journal order always matches apply order.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	size    int64
	nextLSN uint64
	pending int    // appends since the last sync (group commit)
	frame   []byte // Append's frame buffer, reused from record to record

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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}

	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		// Scan the last segment to find the end of its intact prefix; a torn
		// tail left by a crash is cut here so new appends never interleave
		// with garbage.
		last := segs[len(segs)-1]
		path := filepath.Join(dir, segName(last))
		intact, lastLSN, err := intactPrefix(path)
		if err != nil {
			return nil, err
		}
		if err := os.Truncate(path, intact); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s: %w", path, err)
		}
		l.f, l.size = f, intact
		if lastLSN >= l.nextLSN {
			l.nextLSN = lastLSN + 1
		} else if lastLSN == 0 && intact == 0 {
			// Empty tail segment: the next LSN is the segment's base.
			l.nextLSN = last
		}
	}
	return l, nil
}

// Append frames payload as the next record and writes it to the active
// segment, syncing according to the policy. It returns the record's LSN.
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
	l.pending++
	switch l.opts.Policy {
	case FsyncPerOp:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncGroupCommit:
		if l.pending >= groupEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	case FsyncAsync:
		// The OS flushes on its own schedule; Close still syncs.
	}
	return lsn, nil
}

// rollLocked opens the active segment, rolling to a fresh file when the
// current one passed the size threshold. Called with l.mu held.
func (l *Log) rollLocked() error {
	if l.f != nil && l.size < l.opts.SegmentBytes {
		return nil
	}
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing full segment: %w", err)
		}
	}
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	l.f, l.size = f, 0
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil || l.pending == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.pending = 0
	l.syncs++
	return nil
}

// Stats returns cumulative appends and syncs, for the wal.* counters.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Close syncs and closes the active segment. The log must not be used after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Crash drops the file handle without syncing — the SIGKILL stand-in the
// crash drill uses. Bytes already written survive in the page cache exactly
// as they would across a real process death; only the handle is lost.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close() //nolint:errcheck
		l.f = nil
	}
}

// TruncateThrough removes every segment whose records are all covered by a
// snapshot at lsn: a segment may go once the next segment starts at or below
// lsn+1. The active tail segment is always kept.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := segments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= lsn+1 {
			if err := os.Remove(filepath.Join(l.dir, segName(segs[i]))); err != nil {
				return fmt.Errorf("wal: truncating segment %d: %w", segs[i], err)
			}
		}
	}
	return nil
}

// Replay streams every intact record in dir to fn in LSN order and returns
// the last LSN delivered. A truncated or corrupt frame ends the replay
// there: the torn tail (and anything after it) is dropped, records before it
// are preserved. dropped reports how many bytes were discarded.
func Replay(dir string, fn func(lsn uint64, payload []byte) error) (last uint64, dropped int64, err error) {
	segs, err := segments(dir)
	if err != nil {
		return 0, 0, err
	}
	for i, base := range segs {
		path := filepath.Join(dir, segName(base))
		data, err := os.ReadFile(path)
		if err != nil {
			return last, dropped, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		off := 0
		for off < len(data) {
			lsn, payload, n, ok := readFrame(data[off:])
			if !ok {
				break
			}
			if err := fn(lsn, payload); err != nil {
				return last, dropped, err
			}
			last = lsn
			off += n
		}
		if off < len(data) {
			// Torn or corrupt frame: everything from here on — including any
			// later segments, which would leave an LSN gap — is dropped.
			dropped += int64(len(data) - off)
			for _, later := range segs[i+1:] {
				if fi, err := os.Stat(filepath.Join(dir, segName(later))); err == nil {
					dropped += fi.Size()
				}
			}
			return last, dropped, nil
		}
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

// intactPrefix scans a segment and returns the byte length of its intact
// record prefix plus the last intact LSN.
func intactPrefix(path string) (int64, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	off, last := 0, uint64(0)
	for off < len(data) {
		lsn, _, n, ok := readFrame(data[off:])
		if !ok {
			break
		}
		last = lsn
		off += n
	}
	return int64(off), last, nil
}

// segments lists the segment base LSNs in dir in ascending order.
func segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
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
// — the bit-rot half of the torn-tail test surface, also used by the crash
// drill to prove a damaged final record is dropped, not replayed.
func CorruptTail(dir string) error {
	segs, err := segments(dir)
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
