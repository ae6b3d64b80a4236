package metadata

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"u1/internal/wal"
)

// formatGolden holds the journal payloads and snapshots populate leaves on a
// 4-shard durable store. Old journals and snapshots must stay readable, so
// any change to these bytes is a format change and must be deliberate.
const formatGolden = "testdata/format.golden"

// durableFormat runs populate on a fresh durable store that never snapshots
// mid-run, then renders every shard's WAL payloads (one per line) followed by
// the snapshot Close writes.
func durableFormat(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s := openDurable(t, dir, Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncPerOp})
	populate(t, s)
	var out bytes.Buffer
	for i := 0; i < s.NumShards(); i++ {
		fmt.Fprintf(&out, "# shard %d wal\n", i)
		_, _, err := wal.Replay(s.ShardWALDir(i), func(lsn uint64, payload []byte) error {
			fmt.Fprintf(&out, "%d %s\n", lsn, payload)
			return nil
		})
		if err != nil {
			t.Fatalf("Replay shard %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < s.NumShards(); i++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%d", i), snapshotFile))
		if err != nil {
			t.Fatalf("reading snapshot of shard %d: %v", i, err)
		}
		fmt.Fprintf(&out, "# shard %d snapshot\n%s\n", i, data)
	}
	return out.Bytes()
}

// TestDurableFormatGolden pins the on-disk record and snapshot encoding byte
// for byte.
func TestDurableFormatGolden(t *testing.T) {
	want, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got := durableFormat(t); !bytes.Equal(got, want) {
		t.Fatalf("durable format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", formatGolden, got, want)
	}
}
