package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/auth"
	"u1/internal/blob"
	"u1/internal/metadata"
	"u1/internal/metrics"
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
	if c.extTab[r.Ext] != "mp3" || c.srvTab[r.Server] != "whitecurrant" {
		t.Error("interning broken")
	}
	if !r.When().Equal(t0.Add(time.Minute)) || r.Duration() != 15*time.Millisecond {
		t.Error("time accessors broken")
	}
	if r.HashLo == 0 {
		t.Error("hash prefix lost")
	}
}

// TestPartOpsCountInSeriesNotTrace pins where the upload-granularity rule
// lives: every part request counts in the per-op series, and the trace
// keeps one PutContent record per completed upload and no part record.
func TestPartOpsCountInSeriesNotTrace(t *testing.T) {
	reg := metrics.NewRegistry()
	authSvc := auth.New(auth.Config{Seed: 3})
	srv := apiserver.New(apiserver.Config{Name: "m", Procs: 2}, apiserver.Deps{
		RPC:      rpc.NewServer(metadata.New(metadata.Config{Shards: 4}), rpc.Config{Seed: 3, Metrics: reg}),
		Auth:     authSvc,
		Blob:     blob.New(blob.Config{}),
		Broker:   notify.NewBroker(),
		Transfer: blob.DefaultTransferModel(),
		Metrics:  reg,
	})
	col := NewCollector(Config{Start: t0, Days: 1})
	srv.AddObserver(col.APIObserver())
	token, err := authSvc.Issue(1)
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _ := srv.OpenSession(token, nil, t0)
	do := func(req protocol.Request) *protocol.Response {
		t.Helper()
		resp, _ := srv.Handle(sess, &req, t0)
		if resp.Status != protocol.StatusOK {
			t.Fatalf("%v: %v", req.Op, resp.Status)
		}
		return resp
	}
	root := do(protocol.Request{Op: protocol.OpListVolumes}).Volumes[0].ID
	node := do(protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: "a.iso"}).Node.ID
	const size = 2*blob.PartSize + 10
	put := do(protocol.Request{Op: protocol.OpPutContent, Volume: root, Node: node, Name: "a.iso", Hash: protocol.HashBytes([]byte("a")), Size: size})
	do(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 0, Size: blob.PartSize})
	do(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 1, Size: blob.PartSize})
	do(protocol.Request{Op: protocol.OpPutPart, Upload: put.Upload, Part: 2, Size: 10, Final: true})
	do(protocol.Request{Op: protocol.OpGetContent, Volume: root, Node: node})
	do(protocol.Request{Op: protocol.OpGetPart, Volume: root, Node: node, Part: 0})

	snap := reg.Snapshot()
	for _, c := range []struct {
		op   protocol.Op
		want uint64
	}{{protocol.OpPutPart, 3}, {protocol.OpGetPart, 1}, {protocol.OpPutContent, 1}} {
		if got := snap.Counter(metrics.APIOp(c.op.String()).Count); got != c.want {
			t.Errorf("api.op.%v.count = %d, want %d", c.op, got, c.want)
		}
	}
	var uploads []Record
	for _, r := range col.Records() {
		switch protocol.Op(r.Op) {
		case protocol.OpPutPart, protocol.OpGetPart:
			t.Errorf("the trace holds a %v record", protocol.Op(r.Op))
		case protocol.OpPutContent:
			uploads = append(uploads, r)
		}
	}
	if len(uploads) != 1 || uploads[0].Size != size || uploads[0].Node != uint64(node) {
		t.Errorf("upload records = %+v, want one of the %d-byte upload", uploads, size)
	}

	// A final part that failed is no completed upload, and a PutContent is
	// recorded unless it opened a job.
	before := col.Len()
	failed := sampleEvent(protocol.OpPutPart, t0)
	failed.Final, failed.Status = true, protocol.StatusUnavailable
	opened := sampleEvent(protocol.OpPutContent, t0)
	opened.Upload = 9
	obs := col.APIObserver()
	obs(failed)
	obs(opened)
	obs(sampleEvent(protocol.OpPutContent, t0))
	if got := col.Len() - before; got != 1 {
		t.Errorf("recorded %d of a failed final part, a job-opening and a reusing PutContent, want the last", got)
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
	if n := len(agg.Samples[protocol.RPCMakeFile].Sample()); n != 100 {
		t.Errorf("reservoir holds %d of 100 samples, want all", n)
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
	if len(col.rpcRecs.slice()) == 0 {
		t.Error("collector attached mid-traffic recorded no RPC spans")
	}
}

// Streaming emission with arbitrary flush points must produce the same
// per-file bytes as one post-hoc WriteCSV: this is the contract that lets the
// scale campaign stream instead of accumulating a month of records in memory.
func TestStreamMatchesWriteCSVByteForByte(t *testing.T) {
	t.Run("uneven epochs", func(t *testing.T) { streamMatchesWriteCSV(t, 50, 40*time.Minute, 7) })
	// The record store is chunked: cross three chunk boundaries, with every
	// flush landing inside a chunk. These records encode to about 37 bytes,
	// so a chunk holds about 1,770 of them and every flush interval spans
	// more than one.
	t.Run("across chunks", func(t *testing.T) {
		perChunk := chunkBytes / 37
		streamMatchesWriteCSV(t, 3*perChunk+1000, 10*time.Second, perChunk+333)
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

// TestCollectingAllocatesOneChunkAtATime is the allocation and size guard of
// the record store, fed a stream shaped like the workload's: one session's
// ops a few seconds apart, about half of them carrying content. Collecting
// allocates the store's chunks and nothing per record (the interned servers
// and extensions were seen before), and the chunks hold at most 32 bytes a
// record.
func TestCollectingAllocatesOneChunkAtATime(t *testing.T) {
	c := NewCollector(Config{Start: t0, Days: 30})
	obs := c.APIObserver()
	ops := []protocol.Op{protocol.OpGetDelta, protocol.OpPutContent, protocol.OpListVolumes,
		protocol.OpGetContent, protocol.OpMove, protocol.OpMakeFile}
	at, fed := t0, 0
	next := func() apiserver.Event {
		ev := sampleEvent(ops[fed%len(ops)], at)
		ev.Node = protocol.NodeID(5000 + fed%700)
		ev.Duration = time.Duration(2+fed%13) * time.Millisecond
		if fed%2 == 0 {
			ev.Hash, ev.Size, ev.Wire, ev.Ext, ev.IsUpdate = protocol.Hash{}, 0, 0, "", false
		}
		at = at.Add(time.Duration(1+fed%5) * time.Second)
		fed++
		return ev
	}
	obs(next())
	obs(next())
	const perRun, runs = 16 << 10, 8
	before := len(c.records.chunks)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			obs(next())
		}
	})
	// AllocsPerRun makes one warm-up run beside the measured ones.
	chunks := float64(len(c.records.chunks)-before) / (runs + 1)
	// The doubling of the chunk index amortizes to less than one more
	// allocation a run, which AllocsPerRun's integer average drops.
	if allocs > chunks+1 {
		t.Errorf("%d records cost %.0f allocations, want about %.1f chunks", perRun, allocs, chunks)
	}
	var stored int
	for _, chunk := range c.records.chunks {
		stored += cap(chunk)
	}
	per := float64(stored) / float64(c.records.n)
	t.Logf("%.1f bytes a record; %.0f allocations for %.1f chunks a run", per, allocs, chunks)
	if per > 32 {
		t.Errorf("the store holds %.1f bytes a record, want at most 32", per)
	}
	if got, want := c.Len(), fed; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// checkStore asserts that s holds exactly want, in order, through both of
// its readers, and that no append regrew a chunk.
func checkStore(t *testing.T, s *recordStore, want []Record) {
	t.Helper()
	for i, chunk := range s.chunks {
		if cap(chunk) != chunkBytes {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(chunk), chunkBytes)
		}
	}
	got := s.slice()
	if len(got) != len(want) || cap(got) != len(want) || s.n != len(want) {
		t.Fatalf("slice() len %d cap %d, n %d, want exactly %d", len(got), cap(got), s.n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	i := 0
	err := s.each(func(r *Record) error {
		if i < len(want) && *r != want[i] {
			return fmt.Errorf("each record %d = %+v, want %+v", i, *r, want[i])
		}
		i++
		return nil
	})
	if err == nil && i != len(want) {
		err = fmt.Errorf("each visited %d records, want %d", i, len(want))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// adversarialRecords are the values a byte log is most likely to get wrong:
// zeros, extremes of every wide field, a hash whose high byte is zero, times
// going backwards, and every kind and shard sentinel.
func adversarialRecords() []Record {
	const maxU = math.MaxUint64
	return []Record{
		{},
		{Time: math.MaxInt64, Dur: math.MaxInt64, Session: maxU, User: maxU, Volume: maxU,
			Node: maxU, HashLo: maxU, Size: maxU, Wire: maxU, Kind: KindRPC, Op: 255, RPC: 255,
			Status: 255, Proc: 255, Shard: 127, Server: 255, Ext: 255, Flags: 255},
		{Time: math.MinInt64, Dur: math.MinInt64, Shard: -128},
		{Time: 0, Dur: -1, Session: 1, User: maxU, HashLo: 0x00ffffffffffffff, Kind: KindSession, Shard: -1},
		{Time: 1e18, Session: maxU, User: 0, HashLo: 0x0000000000000001, Size: 1 << 63, Kind: KindStorage, Shard: -1},
		{Time: 5, Session: 0, User: maxU - 1, HashLo: 0x0100000000000000, Wire: 1, Kind: KindStorage, Shard: 127},
		{Time: -1e18, Dur: 15e6, Session: 1001, User: 42, Volume: 7, Node: 99, Size: 1 << 20,
			Wire: 900 << 10, Kind: KindStorage, Op: uint8(protocol.OpPutContent), Shard: -1, Flags: FlagUpdate | FlagDir},
		{Time: 4, Kind: KindRPC, RPC: uint8(protocol.RPCGetDelta), Shard: 3, Status: 1},
	}
}

// TestRecordStoreRoundTrip drives the adversarial records through the store
// across chunk boundaries and a reset: both readers return exactly what went
// in, in order.
func TestRecordStoreRoundTrip(t *testing.T) {
	table := adversarialRecords()
	var s recordStore
	// fill adds variations of the table until the store has opened three
	// more chunks, returning what it added.
	fill := func() []Record {
		var added []Record
		start := len(s.chunks)
		for i := 0; len(s.chunks) < start+3; i++ {
			r := table[i%len(table)]
			if round := i / len(table); round%2 == 1 {
				r.Time -= int64(round) * int64(time.Hour) // backwards again
				r.Node ^= uint64(round)
				r.Session += uint64(round)
			}
			s.add(&r)
			added = append(added, r)
		}
		return added
	}
	want := fill()
	checkStore(t, &s, want)
	want = append(want, fill()...)
	checkStore(t, &s, want)

	s.reset()
	checkStore(t, &s, nil)
	want = fill()
	checkStore(t, &s, want)
}

// fuzzRecord reads one record from the head of data: two bytes choosing the
// wide fields that follow as eight bytes each (a clear bit leaves the field
// zero), then the nine one-byte fields. Missing bytes read as zero. The top
// bit asks for a reset of the store before the record is added.
func fuzzRecord(data []byte) (r Record, reset bool, rest []byte) {
	next := func(n int) uint64 {
		var b [8]byte
		data = data[copy(b[:n], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	mask := next(2)
	var w [9]uint64
	for i := range w {
		if mask&(1<<i) != 0 {
			w[i] = next(8)
		}
	}
	r.Time, r.Dur = int64(w[0]), int64(w[1])
	r.Session, r.User, r.Volume, r.Node, r.HashLo, r.Size, r.Wire = w[2], w[3], w[4], w[5], w[6], w[7], w[8]
	var b [9]byte
	data = data[copy(b[:], data):]
	r.Kind, r.Op, r.RPC, r.Status, r.Proc = Kind(b[0]), b[1], b[2], b[3], b[4]
	r.Shard, r.Server, r.Ext, r.Flags = int8(b[5]), b[6], b[7], b[8]
	return r, mask&(1<<15) != 0, data
}

// FuzzRecordStore builds a record sequence, with resets, from the fuzz bytes:
// the store returns exactly the records added since the last reset.
func FuzzRecordStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	var seed []byte
	for _, r := range adversarialRecords() {
		seed = append(seed, 0xff, 0x01)
		for _, v := range []uint64{uint64(r.Time), uint64(r.Dur), r.Session, r.User, r.Volume, r.Node, r.HashLo, r.Size, r.Wire} {
			seed = binary.LittleEndian.AppendUint64(seed, v)
		}
		seed = append(seed, uint8(r.Kind), r.Op, r.RPC, r.Status, r.Proc, uint8(r.Shard), r.Server, r.Ext, r.Flags)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s recordStore
		var want []Record
		for len(data) > 0 {
			r, reset, rest := fuzzRecord(data)
			if reset {
				s.reset()
				want = want[:0]
			}
			s.add(&r)
			want = append(want, r)
			data = rest
		}
		checkStore(t, &s, want)
	})
}
