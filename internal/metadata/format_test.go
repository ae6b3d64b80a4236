package metadata

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"u1/internal/wal"
)

// formatGolden holds the journal records and snapshots populate leaves on a
// 4-shard durable store. Journals and snapshots written by an earlier build
// must stay readable, so any change to these bytes is a format change: it
// bumps snapshotVersion or adds a record kind, and it is deliberate.
const formatGolden = "testdata/format.golden"

// durableFormat runs populate on a fresh durable store that never snapshots
// mid-run, then renders every shard's WAL records, one per line as
// "LSN kind hex", followed by the snapshot Close writes, in hex, 64 bytes to
// a line.
func durableFormat(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s := openDurable(t, dir, Config{Shards: 4, SnapshotEvery: 1 << 20, FsyncPolicy: wal.FsyncPerOp})
	populate(t, s)
	var out bytes.Buffer
	for i := 0; i < s.NumShards(); i++ {
		fmt.Fprintf(&out, "# shard %d wal\n", i)
		_, _, err := wal.Replay(s.ShardWALDir(i), func(lsn uint64, payload []byte) error {
			fmt.Fprintf(&out, "%d %v %x\n", lsn, recKind(payload[0]), payload)
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
		fmt.Fprintf(&out, "# shard %d snapshot\n", i)
		for len(data) > 0 {
			line := data[:min(64, len(data))]
			fmt.Fprintf(&out, "%x\n", line)
			data = data[len(line):]
		}
	}
	return out.Bytes()
}

// goldenRecords returns the WAL payloads of formatGolden with the kind name
// each line gives them.
func goldenRecords(t testing.TB) (payloads [][]byte, kinds []string) {
	t.Helper()
	data, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	inWAL := false
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			inWAL = strings.HasSuffix(line, " wal")
			continue
		}
		if !inWAL {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("golden WAL line %q: want LSN kind hex", line)
		}
		if _, err := strconv.ParseUint(fields[0], 10, 64); err != nil {
			t.Fatalf("golden WAL line %q: %v", line, err)
		}
		payload, err := hex.DecodeString(fields[2])
		if err != nil {
			t.Fatalf("golden WAL line %q: %v", line, err)
		}
		payloads = append(payloads, payload)
		kinds = append(kinds, fields[1])
	}
	return payloads, kinds
}

// TestDurableFormatGolden pins the on-disk record and snapshot encoding byte
// for byte, and requires every golden record to decode and re-encode to the
// identical bytes.
func TestDurableFormatGolden(t *testing.T) {
	want, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got := durableFormat(t); !bytes.Equal(got, want) {
		t.Fatalf("durable format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", formatGolden, got, want)
	}
	payloads, kinds := goldenRecords(t)
	if len(payloads) == 0 {
		t.Fatal("golden holds no WAL records")
	}
	for i, payload := range payloads {
		var rec journalRecord
		if err := decodePayload(payload, &rec); err != nil {
			t.Fatalf("golden record %d (%s): %v", i, kinds[i], err)
		}
		if rec.Kind.String() != kinds[i] {
			t.Errorf("golden record %d decodes as %v, its line says %s", i, rec.Kind, kinds[i])
		}
		if again := encodeRecords(rec); !bytes.Equal(again, payload) {
			t.Errorf("golden record %d (%s) re-encodes differently:\n  golden %x\n  again  %x", i, kinds[i], payload, again)
		}
	}
}
