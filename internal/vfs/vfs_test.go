package vfs

import (
	"errors"
	"io/fs"
	"maps"
	"path/filepath"
	"testing"
)

// disk is one FS under test, rooted at root, with the files the steps keep
// open.
type disk struct {
	fsys FS
	root string
	open map[string]File
}

func (d *disk) path(name string) string { return filepath.Join(d.root, name) }

func (d *disk) write(name, data string) error {
	_, err := d.open[name].Write([]byte(data))
	return err
}

// tree lists every directory and file under root: a directory maps to "/",
// a file to its bytes.
func tree(t *testing.T, fsys FS, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	var walk func(rel string)
	walk = func(rel string) {
		names, err := fsys.ReadDir(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("ReadDir %s: %v", rel, err)
		}
		for _, name := range names {
			p := filepath.Join(rel, name)
			if _, err := fsys.ReadDir(filepath.Join(root, p)); err == nil {
				out[p] = "/"
				walk(p)
				continue
			}
			data, err := fsys.ReadFile(filepath.Join(root, p))
			if err != nil {
				t.Fatalf("ReadFile %s: %v", p, err)
			}
			out[p] = string(data)
		}
	}
	walk(".")
	return out
}

// TestMemFSMatchesOSFS runs one call sequence on the real disk and on a
// MemFS in lockstep: after every step both read back the same names and
// bytes, and refuse the same calls. A power cut then keeps exactly the
// synced bytes under the SyncDir'd names.
func TestMemFSMatchesOSFS(t *testing.T) {
	steps := []struct {
		name string
		do   func(d *disk) error
	}{
		{"mkdir", func(d *disk) error { return d.fsys.MkdirAll(d.path("a/b")) }},
		{"create", func(d *disk) (err error) {
			d.open["x"], err = d.fsys.OpenFile(d.path("a/x"), CreateAppend)
			return err
		}},
		{"write", func(d *disk) error { return d.write("x", "hello") }},
		{"sync", func(d *disk) error { return d.open["x"].Sync() }},
		{"write unsynced", func(d *disk) error { return d.write("x", " world") }},
		{"create in subdir", func(d *disk) (err error) {
			d.open["y"], err = d.fsys.OpenFile(d.path("a/b/y"), CreateTrunc)
			return err
		}},
		{"write y", func(d *disk) error { return d.write("y", "yyy") }},
		{"sync y", func(d *disk) error { return d.open["y"].Sync() }},
		{"close y", func(d *disk) error { return d.open["y"].Close() }},
		{"create gone", func(d *disk) (err error) {
			d.open["g"], err = d.fsys.OpenFile(d.path("a/gone"), CreateAppend)
			return err
		}},
		{"write gone", func(d *disk) error { return d.write("g", "ghost") }},
		{"sync gone", func(d *disk) error { return d.open["g"].Sync() }},
		{"syncdir a", func(d *disk) error { return d.fsys.SyncDir(d.path("a")) }},
		{"remove gone", func(d *disk) error { return d.fsys.Remove(d.path("a/gone")) }},
		{"rename y", func(d *disk) error { return d.fsys.Rename(d.path("a/b/y"), d.path("a/b/z")) }},
		{"truncate x", func(d *disk) error { return d.fsys.Truncate(d.path("a/x"), 4) }},
		{"append after truncate", func(d *disk) error { return d.write("x", "!") }},
		{"reopen x", func(d *disk) (err error) {
			d.open["x"], err = d.fsys.OpenFile(d.path("a/x"), AppendOnly)
			return err
		}},
		{"append x", func(d *disk) error { return d.write("x", "?") }},
		{"trunc-open z", func(d *disk) (err error) {
			d.open["z"], err = d.fsys.OpenFile(d.path("a/b/z"), CreateTrunc)
			return err
		}},
		{"write z", func(d *disk) error { return d.write("z", "zz") }},
	}
	osd := &disk{fsys: OSFS{}, root: t.TempDir(), open: map[string]File{}}
	mem := NewMemFS()
	memd := &disk{fsys: mem, root: "/r", open: map[string]File{}}
	if err := mem.MkdirAll(memd.root); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		for _, d := range []*disk{osd, memd} {
			if err := s.do(d); err != nil {
				t.Fatalf("%s on %T: %v", s.name, d.fsys, err)
			}
		}
		if got, want := tree(t, mem, memd.root), tree(t, OSFS{}, osd.root); !maps.Equal(got, want) {
			t.Fatalf("after %s: MemFS holds %v, OSFS %v", s.name, got, want)
		}
	}
	for _, f := range osd.open {
		f.Close() //nolint:errcheck
	}

	for _, d := range []*disk{osd, memd} {
		if _, err := d.fsys.ReadFile(d.path("a/missing")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%T ReadFile of a missing file: %v", d.fsys, err)
		}
		if _, err := d.fsys.ReadDir(d.path("nodir")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%T ReadDir of a missing directory: %v", d.fsys, err)
		}
		if _, err := d.fsys.OpenFile(d.path("a/missing"), AppendOnly); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%T OpenFile without create of a missing file: %v", d.fsys, err)
		}
		if _, err := d.fsys.OpenFile(d.path("nodir/f"), CreateAppend); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%T create in a missing directory: %v", d.fsys, err)
		}
		if err := d.fsys.Remove(d.path("a/missing")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%T Remove of a missing file: %v", d.fsys, err)
		}
	}

	// The power cut: x keeps its synced bytes (the truncate and later
	// appends were never synced), gone comes back (its removal was never
	// SyncDir'd), and y never had a durable name.
	mem.Crash()
	want := map[string]string{"a": "/", "a/b": "/", "a/x": "hello", "a/gone": "ghost"}
	if got := tree(t, mem, memd.root); !maps.Equal(got, want) {
		t.Fatalf("after the power cut MemFS holds %v, want %v", got, want)
	}
}

// TestMemFSSyncCopiesOnlyNewBytes pins Sync's cost: the durable half grows by
// the bytes written since the last Sync, never by a copy of the whole file.
func TestMemFSSyncCopiesOnlyNewBytes(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("/log", CreateAppend)
	if err != nil {
		t.Fatal(err)
	}
	record := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		f.Write(record) //nolint:errcheck
		f.Sync()        //nolint:errcheck
	}
	// Appending into the durable half reallocates O(log n) times; copying the
	// whole file on every Sync would allocate on every one.
	if allocs := testing.AllocsPerRun(100, func() {
		f.Write(record) //nolint:errcheck
		f.Sync()        //nolint:errcheck
	}); allocs > 0 {
		t.Errorf("Write+Sync allocates %.0f times per record, want amortized 0", allocs)
	}
}
