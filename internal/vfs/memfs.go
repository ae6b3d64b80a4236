package vfs

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// MemFS is an in-memory disk that can lose power, with fsync(2)'s model: a
// file's bytes are durable once it is synced, its name once its directory is,
// a directory once made. It keeps the names and bytes the process sees apart
// from the durable ones, which Crash keeps. Safe for concurrent use.
type MemFS struct {
	mu             sync.Mutex
	names, durable map[string]*memFile
	dirs           map[string]bool
}

// memFile is an inode and its own File. data[:same] == durable[:same].
type memFile struct {
	m             *MemFS
	data, durable []byte
	same          int
}

func NewMemFS() *MemFS {
	return &MemFS{names: map[string]*memFile{}, durable: map[string]*memFile{}, dirs: map[string]bool{"/": true, ".": true}}
}

// at runs fn, under the lock, on the inode name holds.
func (m *MemFS) at(op, name string, fn func(*memFile)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.names[name]; f != nil {
		fn(f)
		return nil
	}
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// OpenFile opens or creates name in an existing directory; writes append.
func (m *MemFS) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.names[name]
	switch {
	case f == nil && (flag&os.O_CREATE == 0 || !m.dirs[filepath.Dir(name)]):
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case f == nil:
		f = &memFile{m: m}
		m.names[name] = f
	case flag&os.O_TRUNC != 0:
		f.truncate(0)
	}
	return f, nil
}

func (m *MemFS) ReadFile(name string) (data []byte, err error) {
	err = m.at("read", name, func(f *memFile) { data = slices.Clone(f.data) })
	return data, err
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var out []string
	for name := range m.names {
		if filepath.Dir(name) == dir {
			out = append(out, filepath.Base(name))
		}
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, filepath.Base(d))
		}
	}
	slices.Sort(out)
	return out, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	return m.at("rename", oldpath, func(f *memFile) { delete(m.names, oldpath); m.names[newpath] = f })
}
func (m *MemFS) Remove(name string) error {
	return m.at("remove", name, func(*memFile) { delete(m.names, name) })
}
func (m *MemFS) Truncate(name string, size int64) error {
	return m.at("truncate", name, func(f *memFile) { f.truncate(int(size)) })
}
func (m *MemFS) FlushCost() time.Duration { return ModeledFlush }

// MkdirAll creates dir and its parents, durable at once.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := dir; !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// SyncDir makes dir's current entries its durable ones.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inDir := func(name string, _ *memFile) bool { return filepath.Dir(name) == dir }
	maps.DeleteFunc(m.durable, inDir)
	for name, f := range m.names {
		if inDir(name, f) {
			m.durable[name] = f
		}
	}
	return nil
}

// Crash cuts the power. Files opened before it must not be used after it.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names = maps.Clone(m.durable)
	for _, f := range m.names {
		f.revert()
	}
}

func (f *memFile) revert() { f.data, f.same = append(f.data[:0], f.durable...), len(f.durable) }

func (f *memFile) truncate(size int) {
	f.data, f.same = append(f.data[:min(size, len(f.data))], make([]byte, max(0, size-len(f.data)))...), min(f.same, size)
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.data = append(f.data, p...)
	return len(p), nil
}

// Sync copies only the bytes written since the last one.
func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.durable, f.same = append(f.durable[:f.same], f.data[f.same:]...), len(f.data)
	return nil
}
func (f *memFile) Close() error { return nil }
