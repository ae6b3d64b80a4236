package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// crashFS cuts the power under a durable store at its at-th mutating call: it
// crashes the MemFS below it instead of making that call, and swallows every
// mutation after it, as a dead machine would. Reads pass through.
type crashFS struct {
	*vfs.MemFS
	at, calls int
	crashed   bool
	// torn, when set, makes a crashing Write persist a seeded prefix of its
	// bytes.
	torn *rand.Rand
	// early, when set, syncs a seeded subset of the files and directories
	// with pending changes just before the crash: a disk may persist any of
	// them on its own schedule.
	early *rand.Rand
	files []*crashFile
	dirs  map[string]bool // directories whose entries changed since their sync
}

func newCrashFS(at int) *crashFS {
	return &crashFS{MemFS: vfs.NewMemFS(), at: at, dirs: map[string]bool{}}
}

// tick counts one mutating call and reports whether it runs: the at-th call
// cuts the power instead, and none runs after it.
func (c *crashFS) tick() bool {
	if c.crashed {
		return false
	}
	c.calls++
	if c.calls < c.at {
		return true
	}
	c.cut()
	return false
}

func (c *crashFS) cut() {
	if c.early != nil {
		for _, f := range c.files {
			if f.dirty && c.early.Intn(2) == 0 {
				f.File.Sync() //nolint:errcheck
			}
		}
		dirs := make([]string, 0, len(c.dirs))
		for d := range c.dirs {
			dirs = append(dirs, d)
		}
		slices.Sort(dirs)
		for _, d := range dirs {
			if c.early.Intn(2) == 0 {
				c.MemFS.SyncDir(d) //nolint:errcheck
			}
		}
	}
	c.MemFS.Crash()
	c.crashed = true
}

func (c *crashFS) OpenFile(name string, flag int) (vfs.File, error) {
	f := &crashFile{c: c}
	if !c.tick() {
		return f, nil
	}
	var err error
	if f.File, err = c.MemFS.OpenFile(name, flag); err != nil {
		return nil, err
	}
	c.files = append(c.files, f)
	c.dirs[filepath.Dir(name)] = true
	return f, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	if !c.tick() {
		return nil
	}
	c.dirs[filepath.Dir(oldpath)], c.dirs[filepath.Dir(newpath)] = true, true
	return c.MemFS.Rename(oldpath, newpath)
}

func (c *crashFS) Remove(name string) error {
	if !c.tick() {
		return nil
	}
	c.dirs[filepath.Dir(name)] = true
	return c.MemFS.Remove(name)
}

func (c *crashFS) Truncate(name string, size int64) error {
	if !c.tick() {
		return nil
	}
	return c.MemFS.Truncate(name, size)
}

func (c *crashFS) MkdirAll(dir string) error {
	if !c.tick() {
		return nil
	}
	return c.MemFS.MkdirAll(dir)
}

func (c *crashFS) SyncDir(dir string) error {
	if !c.tick() {
		return nil
	}
	delete(c.dirs, filepath.Clean(dir))
	return c.MemFS.SyncDir(dir)
}

// crashFile is a file opened through a crashFS.
type crashFile struct {
	vfs.File
	c     *crashFS
	dirty bool // written since its last sync
}

func (f *crashFile) Write(p []byte) (int, error) {
	c := f.c
	if c.crashed {
		return len(p), nil
	}
	if c.calls+1 == c.at && c.torn != nil && len(p) > 0 {
		c.calls++
		f.File.Write(p[:c.torn.Intn(len(p))]) //nolint:errcheck
		f.File.Sync()                         //nolint:errcheck
		c.cut()
		return len(p), nil
	}
	if !c.tick() {
		return len(p), nil
	}
	f.dirty = true
	return f.File.Write(p)
}

func (f *crashFile) Sync() error {
	if !f.c.tick() {
		return nil
	}
	f.dirty = false
	return f.File.Sync()
}

func (f *crashFile) Close() error {
	if f.c.crashed {
		return nil
	}
	return f.File.Close()
}

// faultFS fails the at-th mutating disk call under a durable store instead of
// making it — a write with ENOSPC, any other call with EIO — and makes every
// other call: a disk that refused one call and healed at once.
type faultFS struct {
	*vfs.MemFS
	mu        sync.Mutex // shards commit concurrently; set at while none does
	at, calls int
}

// do makes call unless it is the at-th mutating call, which fails with errno.
func (f *faultFS) do(errno syscall.Errno, call func() error) error {
	f.mu.Lock()
	f.calls++
	fail := f.calls == f.at
	f.mu.Unlock()
	if fail {
		return errno
	}
	return call()
}

func (f *faultFS) fired() bool { return f.at > 0 && f.calls >= f.at }

func (f *faultFS) OpenFile(name string, flag int) (vfs.File, error) {
	var file vfs.File
	err := f.do(syscall.EIO, func() (err error) { file, err = f.MemFS.OpenFile(name, flag); return err })
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	return f.do(syscall.EIO, func() error { return f.MemFS.Rename(oldpath, newpath) })
}
func (f *faultFS) Remove(name string) error {
	return f.do(syscall.EIO, func() error { return f.MemFS.Remove(name) })
}
func (f *faultFS) Truncate(name string, size int64) error {
	return f.do(syscall.EIO, func() error { return f.MemFS.Truncate(name, size) })
}
func (f *faultFS) MkdirAll(dir string) error {
	return f.do(syscall.EIO, func() error { return f.MemFS.MkdirAll(dir) })
}
func (f *faultFS) SyncDir(dir string) error {
	return f.do(syscall.EIO, func() error { return f.MemFS.SyncDir(dir) })
}

// faultFile is a file opened through a faultFS.
type faultFile struct {
	vfs.File
	fs *faultFS
}

func (w *faultFile) Write(p []byte) (n int, err error) {
	err = w.fs.do(syscall.ENOSPC, func() (err error) { n, err = w.File.Write(p); return err })
	return n, err
}
func (w *faultFile) Sync() error { return w.fs.do(syscall.EIO, w.File.Sync) }

// crashOps is the enumerated op sequence: crashUsers CreateUser calls, then
// opMix steps, crashOps in all.
const (
	crashOps   = 200
	crashUsers = 12
)

// crashCfg is the store every crash run opens: few shards, so each sees
// several snapshots and segment rolls in crashOps ops.
func crashCfg(policy wal.Policy, fsys vfs.FS) Config {
	return Config{Shards: 4, SnapshotEvery: 16, FsyncPolicy: policy, Durability: storeRoot, FS: fsys}
}

// runCrashOps runs the enumerated ops on s, calling done after each with the
// op mix, until done reports true.
func runCrashOps(t *testing.T, s *Store, done func(i int, d *opMix) bool) {
	d := &opMix{t: t, s: s, rng: rand.New(rand.NewSource(41))}
	for u := protocol.UserID(crashUsers + 1); u <= crashUsers+4; u++ {
		d.pool = append(d.pool, u)
	}
	for i := 0; i < crashOps; i++ {
		if i < crashUsers {
			u := protocol.UserID(i + 1)
			// Only a fenced shard refuses a new user (TestDiskFaultEnumeration).
			if _, d.err = s.CreateUser(u); d.err != nil && !errors.Is(d.err, protocol.ErrUnavailable) {
				t.Fatal(d.err)
			}
			d.users = append(d.users, u)
		} else {
			d.step()
		}
		if done(i, d) {
			return
		}
	}
}

// TestCrashPointEnumeration cuts the power at every mutating disk call of a
// seeded op sequence — shares and volume deletes included, with snapshots,
// segment rolls and journal truncation along the way — reopens the store
// from what the disk kept, and requires each shard to equal an in-memory
// reference run of the same ops:
//
//   - per-op and group fsync, one sync path: the state after the
//     acknowledged ops, or after them plus the op in flight;
//   - async: some prefix.
//
// Variants tear the crashing write (a seeded prefix of its bytes reaches the
// disk) and sync a seeded subset of pending files and directories first.
// Every op commits at most one record, to one shard (crashReference checks
// it), so no shard can stop inside an op, and no crash can leave an op — a
// share included — on some shards and not on others.
func TestCrashPointEnumeration(t *testing.T) {
	segmentBytes = 512 // a segment roll every few records
	defer func() { segmentBytes = 0 }()

	ref := crashReference(t)
	for _, policy := range []wal.Policy{wal.FsyncPerOp, wal.FsyncGroupCommit, wal.FsyncAsync} {
		for _, variant := range []string{"plain", "torn", "early"} {
			t.Run(fmt.Sprintf("%v/%s", policy, variant), func(t *testing.T) {
				points := 0
				for at := 1; ; at++ {
					c := newCrashFS(at)
					switch variant {
					case "torn":
						c.torn = rand.New(rand.NewSource(int64(at)))
					case "early":
						c.early = rand.New(rand.NewSource(int64(at)))
					}
					s, err := Open(crashCfg(policy, c))
					if err != nil && !c.crashed {
						t.Fatal(err)
					}
					acked, inFlight := 0, !c.crashed
					if !c.crashed {
						runCrashOps(t, s, func(i int, _ *opMix) bool {
							acked = i
							return c.crashed
						})
					}
					if !c.crashed {
						break // at is past the last mutating call
					}
					points++
					r, err := Open(crashCfg(policy, c.MemFS))
					if err != nil {
						t.Fatalf("crash at call %d (op %d): reopen: %v", at, acked, err)
					}
					hi := acked
					if inFlight {
						hi++
					}
					for i, fp := range fingerprints(r) {
						// p is the last op boundary shard i's state matches.
						p := hi
						for p >= 0 && ref[p][i] != fp {
							p--
						}
						switch {
						case p < 0:
							t.Fatalf("crash at call %d (op %d): shard %d recovered a state no op prefix had", at, acked, i)
						case policy != wal.FsyncAsync && p < acked:
							t.Fatalf("crash at call %d (op %d): shard %d lost acknowledged writes: recovered the state after op %d",
								at, acked, i, p)
						}
					}
				}
				t.Logf("%d crash points", points)
			})
		}
	}
}

// crashReference is the enumerated ops' reference run on a store that never
// loses power: ref[p] fingerprints its shards after the first p ops. It fails
// the test unless every op journals at most one record and changes at most
// one shard.
func crashReference(t *testing.T) [][]string {
	s := openDurable(t, vfs.NewMemFS(), crashCfg(wal.FsyncAsync, nil))
	defer s.Close() //nolint:errcheck
	ref := [][]string{fingerprints(s)}
	records := uint64(0)
	runCrashOps(t, s, func(i int, _ *opMix) bool {
		fps := fingerprints(s)
		changed := 0
		for j := range fps {
			if fps[j] != ref[i][j] {
				changed++
			}
		}
		total := uint64(0)
		for _, dsh := range s.dur.shards {
			total += dsh.lastLSN
		}
		if changed > 1 || total > records+1 {
			t.Fatalf("op %d changed %d shards and journaled %d records", i, changed, total-records)
		}
		ref, records = append(ref, fps), total
		return false
	})
	return ref
}

// TestDiskFaultEnumeration fails each mutating disk call of the crash
// enumeration's op sequence in turn — a write with ENOSPC, any other call
// with EIO — on a disk that heals at once, under every fsync policy, and
// checks the fence that failure puts up:
//
//   - the op whose commit met the failure is refused, never acknowledged;
//   - the failed shard, and only it, is fenced: it refuses every mutation
//     with protocol.ErrUnavailable, keeps serving reads, and nothing moves;
//   - after RecoverShard every shard equals the in-memory reference after
//     the acknowledged ops, or after them plus the refused one, and the
//     recovered shard takes writes again.
//
// A failure inside Open refuses the open, and the healed disk then opens
// empty.
func TestDiskFaultEnumeration(t *testing.T) {
	segmentBytes = 512 // a segment roll every few records
	defer func() { segmentBytes = 0 }()

	ref := crashReference(t)
	for _, policy := range []wal.Policy{wal.FsyncPerOp, wal.FsyncGroupCommit, wal.FsyncAsync} {
		t.Run(policy.String(), func(t *testing.T) {
			opens, commits := 0, 0
			for at := 1; ; at++ {
				f := &faultFS{MemFS: vfs.NewMemFS(), at: at}
				s, err := Open(crashCfg(policy, f))
				if err != nil {
					if !f.fired() {
						t.Fatal(err)
					}
					opens++
					if got := fingerprints(openDurable(t, f, crashCfg(policy, f))); !slices.Equal(got, ref[0]) {
						t.Fatalf("call %d failed in Open: the healed disk opened as %v", at, got)
					}
					continue
				}
				failedAt, fenced := -1, -1
				runCrashOps(t, s, func(i int, d *opMix) bool {
					if !f.fired() {
						return false
					}
					failedAt = i
					if !errors.Is(d.err, protocol.ErrUnavailable) {
						t.Fatalf("call %d failed in op %d, which returned %v: acknowledged over a refused disk call", at, i, d.err)
					}
					fenced = requireFenced(t, s, d, fmt.Sprintf("call %d failed in op %d", at, i))
					return true
				})
				if failedAt < 0 {
					break // at is past the last mutating call
				}
				commits++
				if err := s.RecoverShard(fenced); err != nil {
					t.Fatalf("call %d: RecoverShard(%d): %v", at, fenced, err)
				}
				for i, fp := range fingerprints(s) {
					if fp != ref[failedAt][i] && fp != ref[failedAt+1][i] {
						t.Fatalf("call %d failed in op %d: shard %d recovered a state neither before nor after it", at, failedAt, i)
					}
				}
				if _, err := s.CreateUser(freshUser(s, fenced)); err != nil {
					t.Fatalf("call %d: shard %d refuses writes after recovery: %v", at, fenced, err)
				}
			}
			t.Logf("%d disk calls failed in turn: %d in Open, %d in a commit", opens+commits, opens, commits)
		})
	}
}

// requireFenced fails the test unless exactly one shard of s is fenced, and
// it refuses a fresh user and, for each of d's users it holds, a new file and
// a new UDF, with protocol.ErrUnavailable, without any shard moving. It
// returns the fenced shard.
func requireFenced(t *testing.T, s *Store, d *opMix, what string) int {
	t.Helper()
	fenced := -1
	for i, dsh := range s.dur.shards {
		if dsh.fenced != nil {
			if fenced >= 0 {
				t.Fatalf("%s: shards %d and %d are both fenced", what, fenced, i)
			}
			fenced = i
		}
	}
	if fenced < 0 {
		t.Fatalf("%s: no shard is fenced", what)
	}
	before := fingerprints(s)
	refused := func(op string, err error) {
		if !errors.Is(err, protocol.ErrUnavailable) {
			t.Fatalf("%s: %s on fenced shard %d returned %v, want ErrUnavailable", what, op, fenced, err)
		}
	}
	_, err := s.CreateUser(freshUser(s, fenced))
	refused("CreateUser", err)
	for _, u := range d.users {
		if s.ShardFor(u) != fenced {
			continue
		}
		root, err := s.CreateUser(u) // a read, unless u's creation was refused
		if err != nil {
			refused("CreateUser", err)
			continue
		}
		_, err = s.MakeFile(u, root.ID, 0, "fenced")
		refused("MakeFile", err)
		_, err = s.CreateUDF(u, "~/fenced")
		refused("CreateUDF", err)
	}
	if after := fingerprints(s); !slices.Equal(before, after) {
		t.Fatalf("%s: refused writes on fenced shard %d moved the store:\n  before %v\n  after  %v", what, fenced, before, after)
	}
	return fenced
}

// freshUser is a user id s has never seen that lives on shard i.
func freshUser(s *Store, i int) protocol.UserID {
	u := protocol.UserID(1000)
	for s.ShardFor(u) != i || s.shards[i].users[u] != nil {
		u++
	}
	return u
}
