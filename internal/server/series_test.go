package server

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"testing"

	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/protocol"
)

// seriesGolden is the sorted series key set of a cluster that registers
// every metric family. benchmark/ reads series by string, so any change to
// these names is a change to its inputs and must be deliberate.
const seriesGolden = "testdata/series.golden"

// clusterSeries boots a durable, two-region cluster with a fault plan,
// admission control and the SSO bucket on loopback sockets, uploads and
// shares through the gateway, and renders the registry's key set as one
// "kind name" line per series.
func clusterSeries(t *testing.T) []byte {
	t.Helper()
	c, err := OpenCluster(Config{
		Config: metadata.Config{
			Shards:           4,
			Durability:       t.TempDir(),
			Regions:          2,
			ReplicationDelay: 2,
		},
		Machines:        []string{"alpha", "beta"},
		ProcsPerMachine: 2,
		InlineData:      true,
		Seed:            7,
		FaultPlan:       &faults.Plan{Seed: 1},
		AdmitWatermark:  1 << 20,
		SSOAdmitRate:    100,
		SSOAdmitBurst:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := c.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	owner := dialClient(t, tc, 1)
	dialClient(t, tc, 2)
	udf, err := owner.CreateUDF("~/Shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Upload(udf.ID, 0, "a.txt", []byte("series golden")); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.CreateShare(udf.ID, protocol.UserID(2), "s", false); err != nil {
		t.Fatal(err)
	}
	c.Store.DrainReplication()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics.Snapshot()
	var lines []string
	for name := range snap.Counters {
		lines = append(lines, "counter "+name)
	}
	for name := range snap.Gauges {
		lines = append(lines, "gauge "+name)
	}
	for name := range snap.Histograms {
		lines = append(lines, "histogram "+name)
	}
	sort.Strings(lines)
	var out bytes.Buffer
	for _, l := range lines {
		fmt.Fprintln(&out, l)
	}
	return out.Bytes()
}

// TestSeriesGolden pins every series name a fully configured cluster
// registers.
func TestSeriesGolden(t *testing.T) {
	want, err := os.ReadFile(seriesGolden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got := clusterSeries(t); !bytes.Equal(got, want) {
		t.Fatalf("series drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", seriesGolden, got, want)
	}
}
