package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"u1/internal/client"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// gateFS is a MemFS whose file syncs park at a shut gate until it opens,
// then return the result it opened with. It counts file syncs.
type gateFS struct {
	*vfs.MemFS
	mu     sync.Mutex
	gate   *gate         // nil: open
	parked chan struct{} // a sync parking at the gate sends here first
	syncs  atomic.Int64
}

type gate struct {
	open chan struct{}
	err  error // what the parked syncs return; set before open closes
}

func newGateFS() *gateFS {
	return &gateFS{MemFS: vfs.NewMemFS(), parked: make(chan struct{}, 64)}
}

func (g *gateFS) shut() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = &gate{open: make(chan struct{})}
}

// release opens a shut gate: every parked sync returns err, later ones
// pass.
func (g *gateFS) release(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		return
	}
	g.gate.err = err
	close(g.gate.open)
	g.gate = nil
}

func (g *gateFS) OpenFile(name string, flag int) (vfs.File, error) {
	f, err := g.MemFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

type gateFile struct {
	vfs.File
	fs *gateFS
}

func (f gateFile) Sync() error {
	f.fs.syncs.Add(1)
	f.fs.mu.Lock()
	g := f.fs.gate
	f.fs.mu.Unlock()
	if g != nil {
		f.fs.parked <- struct{}{}
		<-g.open
		if g.err != nil {
			return g.err
		}
	}
	return f.File.Sync()
}

// TestOneFlushServesManyCommits holds the journal's flush while k clients of
// one user commit to one shard over TCP: a read of the shard answers while
// the first commit's flush is parked, so no shard lock is held across it;
// every commit lands while that flush is parked, and none is answered, pushed
// to the user's other session or counted in wal.journaled before it is
// released. Released, at most two flushes serve all k. A failing flush
// refuses all k with ErrUnavailable and fences the shard once.
func TestOneFlushServesManyCommits(t *testing.T) {
	const k = 8
	for _, fail := range []error{nil, syscall.EIO} {
		t.Run(map[bool]string{true: "flushed", false: "failed"}[fail == nil], func(t *testing.T) {
			fsys := newGateFS()
			c, err := OpenCluster(Config{
				Config:          metadata.Config{Shards: 1, Durability: "/u1", FS: fsys, FsyncPolicy: wal.FsyncPerOp},
				Machines:        []string{"alpha", "beta"},
				ProcsPerMachine: 4,
				Seed:            7,
			})
			if err != nil {
				t.Fatal(err)
			}
			tc, err := c.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tc.Close)
			watcher := dialClient(t, tc, 1)
			root, _ := watcher.RootVolume()
			var committers [k]*client.Client
			for i := range committers {
				committers[i] = dialClient(t, tc, 1)
			}
			before := c.Metrics.Snapshot()
			syncs := fsys.syncs.Load()

			fsys.shut()
			t.Cleanup(func() { fsys.release(nil) }) // a failed check must not leave the server parked
			done := make(chan error, k)
			mkdir := func(i int) { _, err := committers[i].Mkdir(root, 0, fmt.Sprintf("d%d", i)); done <- err }
			go mkdir(0)
			select {
			case <-fsys.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the first commit never reached a flush")
			}
			// The first commit waits on its parked flush holding no shard
			// lock, so a read of the shard answers at once.
			probed := make(chan struct{})
			go func() { c.Store.ShardFingerprint(0); close(probed) }()
			select {
			case <-probed:
			case <-time.After(time.Second):
				t.Fatal("a read of the shard waited on the parked flush")
			}
			for i := 1; i < k; i++ {
				go mkdir(i)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if n := c.Metrics.Snapshot().Counter(metrics.WALAppends) - before.Counter(metrics.WALAppends); n == k {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the commits behind the parked flush never reached the journal")
				}
			}
			time.Sleep(50 * time.Millisecond) // room for an early answer to show
			select {
			case err := <-done:
				t.Fatalf("a commit was answered (%v) before its flush", err)
			case p := <-watcher.Pushes():
				t.Fatalf("push %+v reached the user's other session before the flush", p)
			default:
			}
			mid := c.Metrics.Snapshot()
			if n := mid.Counter(metrics.WALJournaled) - before.Counter(metrics.WALJournaled); n != 0 {
				t.Fatalf("wal.journaled moved by %d before the flush", n)
			}
			fsys.release(fail)

			for range k {
				select {
				case err := <-done:
					if fail == nil && err != nil {
						t.Fatalf("a commit failed: %v", err)
					}
					if fail != nil && !errors.Is(err, protocol.ErrUnavailable) {
						t.Fatalf("a commit the failed flush covered returned %v, want ErrUnavailable", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a commit never returned after the flush")
				}
			}
			after := c.Metrics.Snapshot()
			delta := func(n metrics.Name) uint64 { return after.Counter(n) - before.Counter(n) }
			if fail == nil {
				if n := fsys.syncs.Load() - syncs; n > 2 {
					t.Errorf("%d commits took %d flushes, want at most 2", k, n)
				}
				if n := delta(metrics.WALJournaled); n != k {
					t.Errorf("wal.journaled moved by %d, want %d", n, k)
				}
				select {
				case <-watcher.Pushes():
				case <-time.After(5 * time.Second):
					t.Error("no push reached the user's other session after the flush")
				}
				return
			}
			if n := delta(metrics.WALErrors); n != 1 {
				t.Errorf("the failed flush fenced %d times, want once", n)
			}
			if n := delta(metrics.WALJournaled); n != 0 {
				t.Errorf("wal.journaled counted %d refused commits", n)
			}
			if _, err := committers[0].Mkdir(root, 0, "after"); !errors.Is(err, protocol.ErrUnavailable) {
				t.Errorf("a commit to the fenced shard returned %v, want ErrUnavailable", err)
			}
		})
	}
}
