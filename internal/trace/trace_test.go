package trace

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
)

var t0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

func sampleEvent(op protocol.Op, at time.Time) apiserver.Event {
	return apiserver.Event{
		Server:   "whitecurrant",
		Proc:     23,
		Session:  1001,
		User:     42,
		Op:       op,
		Volume:   7,
		Node:     99,
		Hash:     protocol.HashBytes([]byte("x")),
		Size:     1 << 20,
		Wire:     900 << 10,
		Ext:      "mp3",
		Start:    at,
		Duration: 15 * time.Millisecond,
		Status:   protocol.StatusOK,
		IsUpdate: true,
	}
}

func TestCollectorAPIEvents(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 30})
	obs := c.APIObserver()
	obs(sampleEvent(protocol.OpAuthenticate, t0))
	obs(sampleEvent(protocol.OpPutContent, t0.Add(time.Minute)))
	obs(sampleEvent(protocol.OpCloseSession, t0.Add(time.Hour)))

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Kind != KindSession || recs[1].Kind != KindStorage || recs[2].Kind != KindSession {
		t.Errorf("kinds = %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	r := recs[1]
	if protocol.Op(r.Op) != protocol.OpPutContent || r.Size != 1<<20 || r.Wire != 900<<10 {
		t.Errorf("record = %+v", r)
	}
	if !r.IsUpdate() {
		t.Error("update flag lost")
	}
	if c.ExtName(r.Ext) != "mp3" || c.ServerName(r.Server) != "whitecurrant" {
		t.Error("interning broken")
	}
	if !r.When().Equal(t0.Add(time.Minute)) || r.Duration() != 15*time.Millisecond {
		t.Error("time accessors broken")
	}
	if r.HashLo == 0 {
		t.Error("hash prefix lost")
	}
}

func TestCollectorRPCAggregation(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 1, Shards: 4})
	obs := c.RPCObserver()
	for i := 0; i < 100; i++ {
		obs(rpc.Span{
			RPC:     protocol.RPCMakeFile,
			Class:   protocol.ClassWrite,
			Shard:   i % 4,
			Proc:    i % 3,
			User:    protocol.UserID(i),
			Start:   t0.Add(time.Duration(i) * time.Minute),
			Service: 10 * time.Millisecond,
		})
	}
	obs(rpc.Span{RPC: protocol.RPCGetNode, Start: t0, Err: protocol.ErrNotFound, Service: time.Millisecond})

	agg := c.RPC()
	if agg.Counts[protocol.RPCMakeFile] != 100 {
		t.Errorf("count = %d", agg.Counts[protocol.RPCMakeFile])
	}
	if agg.Errs[protocol.RPCGetNode] != 1 {
		t.Errorf("errs = %d", agg.Errs[protocol.RPCGetNode])
	}
	if agg.Samples[protocol.RPCMakeFile].Seen() != 100 {
		t.Error("reservoir did not see all samples")
	}
	// 100 spans spread over 4 shards at one per minute, plus the error span
	// (shard 0, minute 0).
	var total uint32
	for s := 0; s < 4; s++ {
		for _, n := range agg.ShardMinute[s] {
			total += n
		}
	}
	if total != 101 {
		t.Errorf("shard-minute total = %d", total)
	}
	if len(agg.ProcTotal) != 3 {
		t.Errorf("proc totals = %v", agg.ProcTotal)
	}
}

func TestLogname(t *testing.T) {
	day := time.Date(2014, 1, 28, 13, 0, 0, 0, time.UTC)
	if got := Logname("whitecurrant", 23, day); got != "production-whitecurrant-23-20140128.csv" {
		t.Errorf("logname = %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 30, KeepRPCRecords: true})
	api := c.APIObserver()
	api(sampleEvent(protocol.OpAuthenticate, t0))
	api(sampleEvent(protocol.OpPutContent, t0.Add(time.Minute)))
	api(sampleEvent(protocol.OpGetContent, t0.Add(26*time.Hour))) // next day: second logfile
	rpcObs := c.RPCObserver()
	rpcObs(rpc.Span{
		RPC: protocol.RPCMakeContent, Shard: 3, Proc: 7, User: 42,
		Start: t0.Add(time.Minute), Service: 12 * time.Millisecond,
	})

	dir := t.TempDir()
	if err := c.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	// One file per (server, proc, day): whitecurrant day1, whitecurrant
	// day2, rpc day1.
	files, _ := filepath.Glob(filepath.Join(dir, "production-*.csv"))
	if len(files) != 3 {
		t.Fatalf("logfiles = %v", files)
	}

	ds, err := ReadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 3 || len(ds.RPCRecords) != 1 {
		t.Fatalf("read %d storage + %d rpc records", len(ds.Records), len(ds.RPCRecords))
	}
	if ds.BadLines != 0 {
		t.Errorf("bad lines = %d", ds.BadLines)
	}
	// Sorted by time.
	for i := 1; i < len(ds.Records); i++ {
		if ds.Records[i].Time < ds.Records[i-1].Time {
			t.Error("records not time-sorted")
		}
	}
	// Field fidelity on the storage record.
	var put *Record
	for i := range ds.Records {
		if protocol.Op(ds.Records[i].Op) == protocol.OpPutContent {
			put = &ds.Records[i]
		}
	}
	if put == nil {
		t.Fatal("upload record lost")
	}
	orig := c.Records()[1]
	if put.Time != orig.Time || put.Size != orig.Size || put.Wire != orig.Wire ||
		put.HashLo != orig.HashLo || put.Flags != orig.Flags || put.Session != orig.Session {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", put, orig)
	}
	if ds.Extensions[put.Ext] != "mp3" {
		t.Errorf("ext = %q", ds.Extensions[put.Ext])
	}
	rp := ds.RPCRecords[0]
	if protocol.RPC(rp.RPC) != protocol.RPCMakeContent || rp.Shard != 3 {
		t.Errorf("rpc record = %+v", rp)
	}
}

func TestReadCSVTolerance(t *testing.T) {
	dir := t.TempDir()
	body := "storage,1389398400000000000,api,1,5,42,Upload,7,99,-1,ff,100,90,txt,1000,0,0\n" +
		"garbage line that does not parse\n" +
		"storage,not-a-timestamp,api,1,5,42,Upload,7,99,-1,ff,100,90,txt,1000,0,0\n" +
		"storage,1389398400000000001,api,1,5,42,NotAnOp,7,99,-1,ff,100,90,txt,1000,0,0\n" +
		"weird,1,2,3\n"
	path := filepath.Join(dir, "production-api-1-20140111.csv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := ReadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 1 {
		t.Errorf("records = %d", len(ds.Records))
	}
	if ds.BadLines != 4 {
		t.Errorf("bad lines = %d, want 4", ds.BadLines)
	}
}

func TestReadCSVEmptyDir(t *testing.T) {
	ds, err := ReadCSV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 0 || ds.BadLines != 0 {
		t.Errorf("unexpected dataset %+v", ds)
	}
}

func TestExtTableOverflow(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 1})
	obs := c.APIObserver()
	for i := 0; i < 300; i++ {
		e := sampleEvent(protocol.OpPutContent, t0)
		e.Ext = "e" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		obs(e)
	}
	// The table holds at most 255 entries; overflow folds to index 0.
	if got := len(c.Extensions()); got > 255 {
		t.Errorf("extension table = %d entries", got)
	}
}

// TestDynamicCollectorAttach attaches the trace collector to a live API
// server and RPC tier while traffic is in flight. Both observer lists are
// copy-on-write, so the attach must be race-free (run under -race) and the
// collector must start accumulating records mid-stream — the dynamic
// attach/detach the registration-before-traffic seed could not do.
func TestDynamicCollectorAttach(t *testing.T) {
	store := metadata.New(metadata.Config{Shards: 4})
	rpcTier := rpc.NewServer(store, rpc.Config{Seed: 3})
	authSvc := auth.New(auth.Config{Seed: 3})
	srv := apiserver.New(apiserver.Config{Name: "m", Procs: 2}, apiserver.Deps{
		RPC:      rpcTier,
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
	})

	const workers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			token, err := authSvc.Issue(protocol.UserID(w + 1))
			if err != nil {
				t.Error(err)
				return
			}
			sess, resp, _ := srv.OpenSession(token, nil, t0)
			if resp.Status != protocol.StatusOK {
				t.Errorf("open session: %v", resp.Status)
				return
			}
			for i := 0; i < per; i++ {
				srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
			}
			srv.CloseSession(sess, t0)
		}(w)
	}

	// Attach the collector mid-traffic, then drive guaranteed post-attach
	// operations through a fresh session.
	col := NewCollector(Config{Start: t0, Days: 1, KeepRPCRecords: true})
	srv.AddObserver(col.APIObserver())
	rpcTier.AddObserver(col.RPCObserver())
	wg.Wait()

	token, err := authSvc.Issue(99)
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _ := srv.OpenSession(token, nil, t0)
	srv.Handle(sess, &protocol.Request{Op: protocol.OpListVolumes}, t0)
	srv.CloseSession(sess, t0)

	if col.Len() == 0 {
		t.Error("collector attached mid-traffic recorded no API events")
	}
	if len(col.RPCRecords()) == 0 {
		t.Error("collector attached mid-traffic recorded no RPC spans")
	}
}

// Streaming emission with arbitrary flush points must produce the same
// per-file bytes as one post-hoc WriteCSV: this is the contract that lets the
// scale campaign stream instead of accumulating a month of records in memory.
func TestStreamMatchesWriteCSVByteForByte(t *testing.T) {
	t.Run("uneven epochs", func(t *testing.T) { streamMatchesWriteCSV(t, 50, 40*time.Minute, 7) })
	// The record store is chunked: cross three chunk boundaries, with every
	// flush landing inside a chunk.
	t.Run("across chunks", func(t *testing.T) {
		streamMatchesWriteCSV(t, 3*chunkRecords+1000, 10*time.Second, chunkRecords+333)
	})
}

// streamMatchesWriteCSV feeds n API events and RPC spans, step apart, to a
// batch collector and to a streaming one flushed every flushEvery events,
// and compares the two logfile trees.
func streamMatchesWriteCSV(t *testing.T, n int, step time.Duration, flushEvery int) {
	span := func(at time.Time, user protocol.UserID) rpc.Span {
		return rpc.Span{RPC: protocol.RPCGetDelta, User: user, Shard: 3, Proc: 2,
			Start: at, Service: 4 * time.Millisecond}
	}
	feed := func(c *Collector, flush func(i int)) {
		api, rpcObs := c.APIObserver(), c.RPCObserver()
		for i := 0; i < n; i++ {
			at := t0.Add(time.Duration(i) * step) // crosses day files
			ev := sampleEvent(protocol.OpPutContent, at)
			ev.Session = protocol.SessionID(1000 + i)
			if i%3 == 0 {
				ev.Server, ev.Proc = "dill", 7
			}
			api(ev)
			rpcObs(span(at, protocol.UserID(i%5)))
			flush(i)
		}
	}

	batchDir, streamDir := t.TempDir(), t.TempDir()

	batch := NewCollector(Config{Start: t0, Days: 30, KeepRPCRecords: true})
	feed(batch, func(int) {})
	if err := batch.WriteCSV(batchDir); err != nil {
		t.Fatal(err)
	}
	recs := batch.Records()
	if len(recs) != n || cap(recs) != n {
		t.Fatalf("Records() len %d cap %d, want exactly %d", len(recs), cap(recs), n)
	}
	for i := range recs {
		if recs[i].Session != uint64(1000+i) {
			t.Fatalf("Records()[%d] is session %d: not in arrival order", i, recs[i].Session)
		}
	}

	stream := NewCollector(Config{Start: t0, Days: 30, KeepRPCRecords: true})
	if err := stream.StartStream(streamDir); err != nil {
		t.Fatal(err)
	}
	feed(stream, func(i int) {
		if i%flushEvery == 0 { // uneven epochs, including mid-day boundaries
			if err := stream.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := stream.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if stream.Len() != batch.Len() {
		t.Errorf("Len after streaming = %d, want %d", stream.Len(), batch.Len())
	}
	if got := len(stream.Records()); got != 0 {
		t.Errorf("stream retained %d records in memory", got)
	}

	want, err := filepath.Glob(filepath.Join(batchDir, "production-*.csv"))
	if err != nil || len(want) == 0 {
		t.Fatalf("batch wrote no logfiles (err=%v)", err)
	}
	got, _ := filepath.Glob(filepath.Join(streamDir, "production-*.csv"))
	if len(got) != len(want) {
		t.Fatalf("file sets differ: batch %d, stream %d", len(want), len(got))
	}
	for _, p := range want {
		name := filepath.Base(p)
		wb, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatalf("stream missing %s: %v", name, err)
		}
		if string(wb) != string(gb) {
			t.Errorf("%s differs between batch and stream emission", name)
		}
	}
}

// TestCollectingAllocatesOneChunkAtATime is the allocation guard of the
// record store: observing a chunk's worth of API events allocates that chunk
// and nothing per record (the interned server and extension were seen
// before).
func TestCollectingAllocatesOneChunkAtATime(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 30})
	obs := c.APIObserver()
	ev := sampleEvent(protocol.OpPutContent, t0)
	obs(ev)
	perChunk := testing.AllocsPerRun(8, func() {
		for i := 0; i < chunkRecords; i++ {
			obs(ev)
		}
	})
	// One chunk; the doubling of the chunk index amortizes to less than one
	// more, which AllocsPerRun's integer average drops.
	if perChunk > 1 {
		t.Errorf("%d records cost %.0f allocations, want one chunk", chunkRecords, perChunk)
	}
	if got, want := c.Len(), 1+9*chunkRecords; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
