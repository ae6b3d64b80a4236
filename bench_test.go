// Package u1 holds the repository-level Go benchmarks: BenchmarkFigures, one
// sub-benchmark per entry of analysis.Figures regenerating it from a shared
// synthetic trace and reporting its measured targets as custom metrics, plus
// micro-benchmarks of the hot substrate paths.
//
// Scale knobs: U1_BENCH_USERS and U1_BENCH_DAYS environment variables
// override the default 800-user, 10-day trace.
package u1

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"u1/internal/analysis"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/client"
	"u1/internal/gateway"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/wal"
	"u1/internal/wire"
	"u1/internal/workload"
)

var (
	benchOnce  sync.Once
	benchRaw   *analysis.Trace
	benchClean *analysis.Trace
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// benchTrace lazily generates the shared experiment trace.
func benchTrace(b *testing.B) (*analysis.Trace, *analysis.Trace) {
	b.Helper()
	benchOnce.Do(func() {
		users := envInt("U1_BENCH_USERS", 800)
		days := envInt("U1_BENCH_DAYS", 10)
		cluster := server.NewCluster(server.Config{
			Seed: 2, AuthFailureRate: auth.PaperFailureRate, Config: metadata.Config{DeltaLogLimit: 96},
		})
		col := trace.NewCollector(trace.Config{
			Start: workload.PaperStart, Days: days,
			Shards: cluster.Store.NumShards(), Seed: 2,
		})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
		workload.New(workload.Config{
			Users: users, Days: days, Seed: 2,
			Attacks: []workload.Attack{
				{Day: 2, Hour: 13, Duration: 2 * time.Hour, APIFactor: 60, AuthFactor: 10},
			},
		}, cluster).Run()
		benchRaw = analysis.FromCollector(col, workload.PaperStart, days)
		benchClean = benchRaw.Sanitize()
	})
	return benchRaw, benchClean
}

// BenchmarkFigures times every entry of analysis.Figures on the shared
// trace, one sub-benchmark each, and reports each of its targets' measured
// value as a metric.
func BenchmarkFigures(b *testing.B) {
	raw, clean := benchTrace(b)
	for i := range analysis.Figures {
		f := &analysis.Figures[i]
		b.Run(strings.ReplaceAll(strings.Join(f.IDs, "+"), " ", ""), func(b *testing.B) {
			var r analysis.Result
			for n := 0; n < b.N; n++ {
				r = f.Run(raw, clean)
			}
			for j, t := range f.Targets {
				if !math.IsNaN(r.Measured[j]) {
					b.ReportMetric(r.Measured[j], metricKey(t.Name))
				}
			}
		})
	}
}

// metricKey turns a target name into a metric unit: lower case, with every
// run of other characters one underscore.
func metricKey(name string) string {
	var k strings.Builder
	sep := false
	for _, c := range strings.ToLower(name) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			if sep && k.Len() > 0 {
				k.WriteByte('_')
			}
			k.WriteRune(c)
			sep = false
		} else {
			sep = true
		}
	}
	return k.String()
}

// benchGeneration measures the end-to-end simulator throughput — events
// (API ops, RPCs, session machinery) per wall second — at the given
// generator shard count.
func benchGeneration(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cluster := server.NewCluster(server.Config{Seed: int64(i) + 10})
		g := workload.New(workload.Config{
			Users: 150, Days: 3, Seed: int64(i) + 10, Workers: workers,
			Attacks: []workload.Attack{},
		}, cluster)
		g.Run()
		b.ReportMetric(float64(g.Engine().Executed()), "events")
		b.ReportMetric(float64(g.Engine().NumShards()), "shards")
	}
}

// BenchmarkTraceGeneration runs one generator shard per core (so it honors
// -cpu: `go test -bench TraceGeneration -cpu 1,4` is the serial-vs-parallel
// comparison). On ≥4 cores the per-core rate must beat
// BenchmarkTraceGenerationSerial.
func BenchmarkTraceGeneration(b *testing.B) { benchGeneration(b, runtime.GOMAXPROCS(0)) }

// BenchmarkTraceGenerationSerial pins Workers=1: the bit-for-bit serial
// stream.
func BenchmarkTraceGenerationSerial(b *testing.B) { benchGeneration(b, 1) }

// --- Substrate micro-benchmarks ---

func BenchmarkWireRequestRoundTrip(b *testing.B) {
	req := &protocol.Request{
		Op: protocol.OpPutContent, Volume: 3, Node: 99, Name: "song.mp3",
		Hash: protocol.HashBytes([]byte("x")), Size: 4 << 20,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := req.Marshal()
		if _, err := protocol.UnmarshalRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteFrame(&buf, 1, payload); err != nil {
			b.Fatal(err)
		}
		_, got, err := wire.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		wire.ReleaseFrame(got, nil)
	}
}

func BenchmarkMetadataMakeFile(b *testing.B) {
	store := metadata.New(metadata.Config{Shards: 10})
	root, err := store.CreateUser(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.MakeFile(1, root.ID, 0, fmt.Sprintf("f%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetadataGetDelta(b *testing.B) {
	store := metadata.New(metadata.Config{Shards: 10})
	root, _ := store.CreateUser(1)
	for i := 0; i < 256; i++ {
		store.MakeFile(1, root.ID, 0, fmt.Sprintf("f%d", i)) //nolint:errcheck
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := protocol.AcquireResponse()
		var err error
		if resp.Deltas, _, err = store.GetDelta(1, root.ID, 200); err != nil {
			b.Fatal(err)
		}
		protocol.ReleaseResponse(resp) // the listing's buffer goes back, as once it is sent
	}
}

func BenchmarkBlobMultipart(b *testing.B) {
	s := blob.New(blob.Config{})
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.CreateMultipartHash(sha1.Sum(fmt.Appendf(nil, "k%d", i)), now)
		for p := 1; p <= 4; p++ {
			if err := s.UploadPartSized(id, p, 5<<20, now); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.CompleteMultipartUpload(id); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALAppend times what one commit costs the journal, from parallel
// committers: an append of a journal-record-sized payload and, when acked,
// the wait for a flush covering it (per-op and group fsync), where one flush
// serves every waiter it covered — the raw cost floor of the durable
// metadata tier. It reports the flushes per append.
func benchWALAppend(b *testing.B, acked bool) {
	b.Helper()
	log, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close() //nolint:errcheck
	payload := bytes.Repeat([]byte{0x5A}, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lsn, err := log.Append(payload)
			if err == nil && acked {
				err = log.SyncThrough(lsn)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	appends, syncs := log.Stats()
	b.ReportMetric(float64(syncs)/float64(appends), "syncs/append")
}

func BenchmarkWALAppendAcked(b *testing.B) { benchWALAppend(b, true) }
func BenchmarkWALAppendAsync(b *testing.B) { benchWALAppend(b, false) }

// BenchmarkDurableMakeFile is BenchmarkMetadataMakeFile with the WAL on: the
// journaled-write overhead the durability knobs buy into.
func BenchmarkDurableMakeFile(b *testing.B) {
	store, err := metadata.Open(metadata.Config{
		Shards: 10, Durability: b.TempDir(), FsyncPolicy: wal.FsyncAsync,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close() //nolint:errcheck
	root, err := store.CreateUser(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.MakeFile(1, root.ID, 0, fmt.Sprintf("f%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path contention benchmarks ---
//
// The per-request path crosses three shared structures: the RPC tier's
// latency sampler, the notification broker, and the gateway balancer. Each
// gets a serial baseline and a b.RunParallel variant; after the
// de-serialization refactor the parallel ops/sec at GOMAXPROCS ≥ 4 must
// exceed the serial rate (scaling), where a globally locked path would sit
// at or below it (serialization).

var hotBenchStart = time.Unix(1390000000, 0)

func newHotBenchRPC(b *testing.B) *rpc.Server {
	b.Helper()
	store := metadata.New(metadata.Config{Shards: 10})
	if _, err := store.CreateUser(1); err != nil {
		b.Fatal(err)
	}
	return rpc.NewServer(store, rpc.Config{Seed: 11})
}

func BenchmarkHotPathSerialRPCCall(b *testing.B) {
	s := newHotBenchRPC(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveAuth(1, hotBenchStart, nil, nil)
	}
}

func BenchmarkHotPathParallelRPCCall(b *testing.B) {
	s := newHotBenchRPC(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.ObserveAuth(1, hotBenchStart, nil, nil)
		}
	})
}

func BenchmarkHotPathParallelNotifyPublish(b *testing.B) {
	broker := notify.NewBroker()
	for _, name := range server.DefaultMachines {
		broker.Subscribe(name, func(notify.Event) {})
	}
	e := notify.Event{Kind: protocol.PushVolumeChanged, User: 1, Origin: server.DefaultMachines[0]}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			broker.Publish(e)
		}
	})
}

func BenchmarkHotPathParallelBalancer(b *testing.B) {
	bal := gateway.NewBalancer(server.DefaultMachines...)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lease, err := bal.Acquire()
			if err != nil {
				b.Error(err)
				return
			}
			bal.Release(lease)
		}
	})
}

// BenchmarkEndToEndUpload measures a full client upload through the
// in-process stack (auth, make, dedup probe, uploadjob, parts, content).
func BenchmarkEndToEndUpload(b *testing.B) {
	cluster := server.NewCluster(server.Config{Seed: 99})
	token, err := cluster.Auth.Issue(1)
	if err != nil {
		b.Fatal(err)
	}
	now := workload.PaperStart
	cli := client.New(client.NewDirectTransport(cluster.LeastLoaded, func() time.Time { return now }))
	if err := cli.Connect(token); err != nil {
		b.Fatal(err)
	}
	root, _ := cli.RootVolume()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := protocol.HashBytes([]byte(fmt.Sprintf("content-%d", i)))
		if _, _, err := cli.UploadSized(root, 0, fmt.Sprintf("f%d.txt", i), h, 64<<10, 40<<10); err != nil {
			b.Fatal(err)
		}
	}
}
