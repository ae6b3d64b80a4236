package metadata

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// touchFS counts the directory-level disk calls made through it.
type touchFS struct {
	vfs.FS
	calls atomic.Int64
}

func (f *touchFS) OpenFile(name string, flag int) (vfs.File, error) {
	f.calls.Add(1)
	return f.FS.OpenFile(name, flag)
}
func (f *touchFS) Rename(oldpath, newpath string) error {
	f.calls.Add(1)
	return f.FS.Rename(oldpath, newpath)
}
func (f *touchFS) Remove(name string) error { f.calls.Add(1); return f.FS.Remove(name) }
func (f *touchFS) Truncate(name string, size int64) error {
	f.calls.Add(1)
	return f.FS.Truncate(name, size)
}
func (f *touchFS) MkdirAll(dir string) error { f.calls.Add(1); return f.FS.MkdirAll(dir) }
func (f *touchFS) SyncDir(dir string) error  { f.calls.Add(1); return f.FS.SyncDir(dir) }

// acked is the files the committers of a test made and saw acknowledged.
type acked struct {
	mu    sync.Mutex
	nodes map[protocol.NodeID]protocol.UserID
}

func (a *acked) add(u protocol.UserID, id protocol.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nodes[id] = u
}

func (a *acked) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.nodes)
}

// commitFiles runs one committer per user, each making files in its root
// volume until one is refused or it made max of them, and returns the
// acknowledged files and every refusal. Each committer sends on started, if
// not nil, once its first op returned.
func commitFiles(t *testing.T, s *Store, users []protocol.UserID, max int, started chan<- struct{}) (*acked, []error) {
	t.Helper()
	roots := make([]protocol.VolumeID, len(users))
	for i, u := range users {
		root, err := s.CreateUser(u)
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = root.ID
	}
	got := &acked{nodes: map[protocol.NodeID]protocol.UserID{}}
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < max; n++ {
				info, err := s.MakeFile(u, roots[i], 0, fmt.Sprintf("f-%d", n))
				if n == 0 && started != nil {
					started <- struct{}{}
				}
				if err != nil {
					errs[i] = err
					return
				}
				got.add(u, info.ID)
			}
		}()
	}
	wg.Wait()
	return got, errs
}

// requireAcked fails the test unless every acknowledged file is in s.
func requireAcked(t *testing.T, s *Store, got *acked) {
	t.Helper()
	for id, u := range got.nodes {
		root, err := s.CreateUser(u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetNode(u, root.ID, id); err != nil {
			t.Fatalf("acknowledged file %d of user %d is gone after reopen: %v", id, u, err)
		}
	}
}

// TestCloseWhileCommitting closes a durable store under concurrent
// committers: every op Close cuts off is refused with ErrUnavailable, an op
// after Close is too, a second Close returns nil without touching the disk,
// and every acknowledged file is there after reopen. Run it under -race.
func TestCloseWhileCommitting(t *testing.T) {
	for _, policy := range []wal.Policy{wal.FsyncPerOp, wal.FsyncAsync} {
		t.Run(policy.String(), func(t *testing.T) {
			mem := vfs.NewMemFS()
			fsys := &touchFS{FS: mem}
			cfg := Config{Shards: 2, FsyncPolicy: policy, Durability: storeRoot, FS: fsys}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			users := []protocol.UserID{1, 2, 3, 4}
			started := make(chan struct{}, len(users))
			closed := make(chan error, 1)
			go func() {
				for range users {
					<-started
				}
				closed <- s.Close()
			}()
			got, errs := commitFiles(t, s, users, math.MaxInt, started)
			if err := <-closed; err != nil {
				t.Fatalf("Close under committers: %v", err)
			}
			for i, err := range errs {
				if !errors.Is(err, protocol.ErrUnavailable) {
					t.Fatalf("user %d's committer stopped on %v, want ErrUnavailable", users[i], err)
				}
			}
			calls := fsys.calls.Load()
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			root, err := s.CreateUser(1) // a read: user 1 exists
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.MakeFile(1, root.ID, 0, "late"); !errors.Is(err, protocol.ErrUnavailable) {
				t.Fatalf("MakeFile after Close: %v, want ErrUnavailable", err)
			}
			if _, err := s.CreateUser(99); !errors.Is(err, protocol.ErrUnavailable) {
				t.Fatalf("CreateUser after Close: %v, want ErrUnavailable", err)
			}
			if err := s.RecoverShard(0); !errors.Is(err, protocol.ErrUnavailable) {
				t.Fatalf("RecoverShard after Close: %v, want ErrUnavailable", err)
			}
			if n := fsys.calls.Load(); n != calls {
				t.Fatalf("after the first Close the store made %d more disk calls", n-calls)
			}
			r := openDurable(t, mem, cfg)
			defer r.Close() //nolint:errcheck
			requireAcked(t, r, got)
			t.Logf("%d files acknowledged before Close", got.count())
		})
	}
}

// closeCheckFS is the real disk, except that a file's Sync fails if the
// file was closed before the Sync returned. (Sync on a closed *os.File fails
// only when it starts after the Close, and a MemFS file never does.)
type closeCheckFS struct{ vfs.OSFS }

func (closeCheckFS) OpenFile(name string, flag int) (vfs.File, error) {
	f, err := vfs.OSFS{}.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &closeCheckFile{File: f}, nil
}

type closeCheckFile struct {
	vfs.File
	closed atomic.Bool
}

func (f *closeCheckFile) Sync() error {
	err := f.File.Sync()
	if f.closed.Load() {
		return errors.Join(err, os.ErrClosed)
	}
	return err
}

func (f *closeCheckFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// TestRollRacesFlush commits from many goroutines into one shard whose
// journal rolls every few records, on the real disk: a roll must wait for
// the flush in flight on the segment it closes, so no op fails and nothing
// is fenced, and every acknowledged file survives a reopen. Run it under
// -race.
func TestRollRacesFlush(t *testing.T) {
	segmentBytes = 256 // a roll every few records
	defer func() { segmentBytes = 0 }()
	cfg := Config{Shards: 1, Durability: t.TempDir(), FS: closeCheckFS{}, FsyncPolicy: wal.FsyncGroupCommit}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, errs := commitFiles(t, s, []protocol.UserID{1, 2, 3, 4, 5, 6, 7, 8}, 25, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if fenced := s.dur.shards[0].fenced; fenced != nil {
		t.Fatalf("the shard is fenced: %v", fenced)
	}
	appends, syncs := s.dur.shards[0].journal.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	requireAcked(t, r, got)
	t.Logf("%d appends, %d syncs", appends, syncs)
}

// syncGateFS is a MemFS whose file syncs park at a shut gate, sending on
// parked first, until release opens it; the parked syncs then return the
// error it opened with.
type syncGateFS struct {
	*vfs.MemFS
	mu     sync.Mutex
	gate   chan struct{} // nil: open
	err    error
	parked chan struct{}
}

func (g *syncGateFS) shut() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = make(chan struct{})
}

func (g *syncGateFS) release(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		g.err = err
		close(g.gate)
		g.gate = nil
	}
}

func (g *syncGateFS) OpenFile(name string, flag int) (vfs.File, error) {
	f, err := g.MemFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return syncGateFile{f, g}, nil
}

type syncGateFile struct {
	vfs.File
	fs *syncGateFS
}

func (f syncGateFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.parked <- struct{}{}
		<-gate
		f.fs.mu.Lock()
		err := f.fs.err
		f.fs.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestFailedFlushAfterRecoveryDoesNotFence parks a per-op MakeFile's flush,
// starts RecoverShard (which waits in the journal's Crash for that flush,
// holding the shard's write lock), then fails the flush with EIO. The op is
// refused, but the error belongs to the journal the recovery replaced: the
// recovered shard is not fenced and takes the next write.
func TestFailedFlushAfterRecoveryDoesNotFence(t *testing.T) {
	fsys := &syncGateFS{MemFS: vfs.NewMemFS(), parked: make(chan struct{}, 4)}
	s, err := Open(Config{Shards: 1, FsyncPolicy: wal.FsyncPerOp, Durability: storeRoot, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	root, err := s.CreateUser(1)
	if err != nil {
		t.Fatal(err)
	}
	fsys.shut()
	t.Cleanup(func() { fsys.release(nil) }) // a failed check must not leave a sync parked
	made := make(chan error, 1)
	go func() {
		_, err := s.MakeFile(1, root.ID, 0, "parked")
		made <- err
	}()
	<-fsys.parked
	recovered := make(chan error, 1)
	go func() { recovered <- s.RecoverShard(0) }()
	for !goroutineIn("wal.(*Log).Crash") {
		select {
		case err := <-recovered:
			t.Fatalf("RecoverShard returned %v without waiting for the parked flush", err)
		default:
			runtime.Gosched()
		}
	}
	fsys.release(syscall.EIO)
	if err := <-made; !errors.Is(err, protocol.ErrUnavailable) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("MakeFile whose flush failed: %v, want ErrUnavailable wrapping EIO", err)
	}
	if err := <-recovered; err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if err := s.Fences(); err != nil {
		t.Fatalf("the recovered shard is fenced by the old journal's flush: %v", err)
	}
	if _, err := s.MakeFile(1, root.ID, 0, "after"); err != nil {
		t.Fatalf("MakeFile after the recovery: %v", err)
	}
}

// goroutineIn reports whether some goroutine's stack holds fn.
func goroutineIn(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}
