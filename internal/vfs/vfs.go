// Package vfs is the durable tier's one seam to the disk: packages wal and
// metadata make every file call through an FS, on OSFS or on a MemFS.
package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"time"
)

// ModeledFlush is one fdatasync on the paper's commodity disks (a 2014-era
// 7.2k RPM drive, write cache off): modeled, so latencies are host-free.
const ModeledFlush = 5 * time.Millisecond

// The open modes the durable tier uses: every file is written from its end.
const (
	AppendOnly   = os.O_WRONLY | os.O_APPEND // an existing file
	CreateAppend = AppendOnly | os.O_CREATE  // created if missing
	CreateTrunc  = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
)

// File is an open, write-only file; Sync makes its current bytes durable.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the set of disk calls the durable tier makes, on clean paths.
type FS interface {
	OpenFile(name string, flag int) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(dir string) ([]string, error) // sorted names
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(dir string) error // returns once the directories it made are durable
	SyncDir(dir string) error  // makes dir's entries durable
	FlushCost() time.Duration  // the modeled time of one Sync
}

// OSFS is the real disk. OpenFile returns the *os.File itself (the seam costs
// an append nothing); MkdirAll syncs the parent of each directory it creates.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int) (File, error) { return os.OpenFile(name, flag, 0o644) }
func (OSFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }
func (OSFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (OSFS) FlushCost() time.Duration                     { return ModeledFlush }

func (OSFS) ReadDir(dir string) (names []string, err error) {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, err
}

func (fsys OSFS) MkdirAll(dir string) error {
	parent := filepath.Dir(dir)
	if _, err := os.Stat(dir); err == nil || parent == dir {
		return err
	}
	return errors.Join(fsys.MkdirAll(parent), os.Mkdir(dir, 0o755), fsys.SyncDir(parent))
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}
