package workload

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"u1/internal/auth"
	"u1/internal/client"
	"u1/internal/metadata"
	"u1/internal/protocol"
	"u1/internal/server"
	"u1/internal/stats"
	"u1/internal/trace"
)

// runSmall generates a small trace with the default worker count and returns
// the generator, collector and cluster for inspection.
func runSmall(t *testing.T, users, days int, attacks []Attack, seed int64) (*Generator, *trace.Collector, *server.Cluster) {
	t.Helper()
	return runSmallWorkers(t, users, days, attacks, seed, 0)
}

// runSmallWorkers is runSmall with an explicit generator shard count.
func runSmallWorkers(t *testing.T, users, days int, attacks []Attack, seed int64, workers int) (*Generator, *trace.Collector, *server.Cluster) {
	t.Helper()
	cluster := server.NewCluster(server.Config{Seed: seed})
	start := PaperStart
	col := trace.NewCollector(trace.Config{Start: start, Days: days, Shards: cluster.Store.NumShards(), Seed: seed})
	cluster.AddAPIObserver(col.APIObserver())
	cluster.AddRPCObserver(col.RPCObserver())
	g := New(Config{Users: users, Days: days, Start: start, Seed: seed, Workers: workers, Attacks: attacks}, cluster)
	g.Run()
	return g, col, cluster
}

func TestGeneratorProducesWorkload(t *testing.T) {
	g, col, cluster := runSmall(t, 150, 3, []Attack{}, 11)
	tot := g.totals
	if tot.Sessions == 0 {
		t.Fatal("no sessions generated")
	}
	if tot.Uploads == 0 || tot.Downloads == 0 {
		t.Errorf("transfers missing: %+v", tot)
	}
	if tot.Deletes == 0 {
		t.Errorf("no deletes: %+v", tot)
	}
	recs := col.Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	// All records inside the trace window.
	end := PaperStart.Add(3 * 24 * time.Hour).Add(8 * 24 * time.Hour) // sessions may outlive the window
	for _, r := range recs {
		at := r.When()
		if at.Before(PaperStart) || at.After(end) {
			t.Fatalf("record outside window: %v", at)
		}
	}
	// The RPC aggregate saw traffic on several shards.
	agg := col.RPC()
	var activeShards int
	for s := range agg.ShardMinute {
		for _, n := range agg.ShardMinute[s] {
			if n > 0 {
				activeShards++
				break
			}
		}
	}
	if activeShards < 5 {
		t.Errorf("traffic on %d shards only", activeShards)
	}
	// Dedup happened (popular content).
	if dr := cluster.Store.Contents().DedupRatio(); dr <= 0 {
		t.Errorf("dedup ratio = %v", dr)
	}
	// Auth failures injected at the configured rate appear.
	if cluster.Auth.Stats().Failed == 0 && tot.FailedAuths == 0 {
		t.Log("note: no auth failures in this small run (rate is 2.76%)")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, col1, _ := runSmall(t, 80, 2, []Attack{}, 42)
	g2, col2, _ := runSmall(t, 80, 2, []Attack{}, 42)
	if g1.totals != g2.totals {
		t.Errorf("totals differ:\n%+v\n%+v", g1.totals, g2.totals)
	}
	if col1.Len() != col2.Len() {
		t.Errorf("record counts differ: %d vs %d", col1.Len(), col2.Len())
	}
}

// TestConfigValidate pins the negative knobs Validate refuses; the zero
// config, which New fills with defaults, passes.
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{Users: -5},
		{Days: -1},
		{Workers: -1},
		{ReconnectBackoff: -time.Second},
		{Retry: client.Retry{Max: -1}},
		{Retry: client.Retry{Backoff: -time.Second}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("Validate(Config{}) = %v, want nil", err)
	}
}

// goldenRun is one Workers=1, attack-free run and the totals and record
// count it must reproduce.
type goldenRun struct {
	users, days int
	seed        int64
	want        Totals
	records     int
}

// goldens are the runs the golden tests pin: TestWorkersOneMatchesGolden in
// memory, and the durable, zero-value fault plan and two-region
// read-your-writes variants, which must reproduce them exactly. A drift here
// means the generator's stream changed, not just a refactor; re-pin on
// purpose only.
var goldens = []goldenRun{
	{80, 2, 42, Totals{Users: 80, Sessions: 157, Uploads: 382, Downloads: 227, Deletes: 30}, 2107},
	{150, 3, 11, Totals{Users: 150, Sessions: 455, Uploads: 115, Downloads: 130, Deletes: 19}, 3365},
}

// check fails the test unless a run of c reproduced its totals and record
// count.
func (c goldenRun) check(t *testing.T, got Totals, records int) {
	t.Helper()
	if got != c.want {
		t.Errorf("users=%d days=%d seed=%d: totals = %+v, want golden %+v",
			c.users, c.days, c.seed, got, c.want)
	}
	if records != c.records {
		t.Errorf("users=%d days=%d seed=%d: %d records, want golden %d",
			c.users, c.days, c.seed, records, c.records)
	}
}

// TestWorkersOneMatchesGolden pins the Workers=1 stream: one generator
// shard reproduces the golden totals and record counts.
func TestWorkersOneMatchesGolden(t *testing.T) {
	for _, c := range goldens {
		g, col, _ := runSmallWorkers(t, c.users, c.days, []Attack{}, c.seed, 1)
		c.check(t, g.totals, col.Len())
	}
}

// TestParallelGeneratorDeterministic pins the relaxed contract: for a fixed
// (Seed, Workers) the Totals and the record counts are reproducible
// regardless of how the shard goroutines interleave.
func TestParallelGeneratorDeterministic(t *testing.T) {
	for _, workers := range []int{2, 4} {
		g1, col1, _ := runSmallWorkers(t, 120, 2, []Attack{}, 77, workers)
		g2, col2, _ := runSmallWorkers(t, 120, 2, []Attack{}, 77, workers)
		if g1.totals != g2.totals {
			t.Errorf("workers=%d: totals differ across runs:\n%+v\n%+v", workers, g1.totals, g2.totals)
		}
		if col1.Len() != col2.Len() {
			t.Errorf("workers=%d: record counts differ: %d vs %d", workers, col1.Len(), col2.Len())
		}
		if g1.totals.Sessions == 0 {
			t.Errorf("workers=%d: degenerate run, no sessions", workers)
		}
	}
}

// TestParallelDeterministicWithFailuresAndAttacks pins the hard case of the
// contract: SSO failure injection and a DDoS storm both cross shard
// boundaries through shared services (auth, fleet caches, least-loaded
// placement). Failures are a pure function of (Seed, user, now) and
// revocation flushes the fleet caches, so two runs at the same
// (Seed, Workers) must still agree exactly.
func TestParallelDeterministicWithFailuresAndAttacks(t *testing.T) {
	run := func() (Totals, int) {
		cluster := server.NewCluster(server.Config{Seed: 3, AuthFailureRate: auth.PaperFailureRate})
		col := trace.NewCollector(trace.Config{Start: PaperStart, Days: 2, Shards: cluster.Store.NumShards(), Seed: 3})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
		g := New(Config{
			Users: 150, Days: 2, Start: PaperStart, Seed: 3, Workers: 4,
			Attacks: []Attack{{Day: 0, Hour: 6, Duration: time.Hour, APIFactor: 30, AuthFactor: 8}},
		}, cluster)
		g.Run()
		return g.totals, col.Len()
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 {
		t.Errorf("totals differ across runs:\n%+v\n%+v", t1, t2)
	}
	if n1 != n2 {
		t.Errorf("record counts differ: %d vs %d", n1, n2)
	}
	if t1.FailedAuths == 0 {
		t.Error("failure injection never fired; the hard case was not exercised")
	}
	if t1.AttackSessions == 0 {
		t.Error("attack never ran; the hard case was not exercised")
	}
}

// TestTrailingCadencesRunThroughWindowEnd pins the epoch-hook cadence
// arithmetic, the one cadence path at every worker count: the GC for a
// 1-day window fires exactly once, at t == end, and both chains then stop —
// an exclusive end guard used to skip that final sweep entirely.
func TestTrailingCadencesRunThroughWindowEnd(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cluster := server.NewCluster(server.Config{Seed: 1})
		g := New(Config{Users: 1, Days: 1, Seed: 1, Workers: workers, Attacks: []Attack{}}, cluster)
		g.nextPump = g.cfg.Start.Add(10 * time.Minute)
		g.nextGC = g.cfg.Start.Add(24 * time.Hour)
		g.runCadences(g.end) // the sentinel event parks the last epoch at/after end
		if !g.nextGC.IsZero() {
			t.Errorf("workers=%d: GC chain did not run its final sweep at the window end: next = %v", workers, g.nextGC)
		}
		if !g.nextPump.IsZero() {
			t.Errorf("workers=%d: pump chain did not run through the window end: next = %v", workers, g.nextPump)
		}
	}
}

// TestRunSweepsUploadJobsAtWindowEnd drives the cadence hook through Run:
// a 1-day window's one uploadjob GC mark is the window end itself, so a job
// older than UploadJobMaxAge there is collected only if that final sweep
// runs, and a job touched at the start survives it.
func TestRunSweepsUploadJobsAtWindowEnd(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cluster := server.NewCluster(server.Config{Seed: 1})
		const owner = protocol.UserID(1 << 20) // outside the generated population
		root, err := cluster.Store.CreateUser(owner)
		if err != nil {
			t.Fatal(err)
		}
		stale, err := cluster.Store.MakeUploadJob(owner, root.ID, 0, protocol.HashBytes([]byte("stale")), 1,
			PaperStart.Add(-metadata.UploadJobMaxAge+time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cluster.Store.MakeUploadJob(owner, root.ID, 0, protocol.HashBytes([]byte("fresh")), 1, PaperStart)
		if err != nil {
			t.Fatal(err)
		}
		New(Config{Users: 20, Days: 1, Start: PaperStart, Seed: 1, Workers: workers, Attacks: []Attack{}}, cluster).Run()
		if err := cluster.Store.DeleteUploadJob(owner, stale.ID); !errors.Is(err, protocol.ErrNotFound) {
			t.Errorf("workers=%d: the stale upload job outlived the window-end sweep (delete: %v)", workers, err)
		}
		if err := cluster.Store.DeleteUploadJob(owner, fresh.ID); err != nil {
			t.Errorf("workers=%d: the fresh upload job was swept: %v", workers, err)
		}
	}
}

// TestParallelGeneratorCoversShards checks that a parallel run actually
// spreads the population across shard event loops (the stable user→shard
// hash must not collapse).
func TestParallelGeneratorCoversShards(t *testing.T) {
	g, _, _ := runSmallWorkers(t, 120, 1, []Attack{}, 9, 4)
	if got := g.Engine().NumShards(); got != 4 {
		t.Fatalf("engine shards = %d, want 4", got)
	}
	var populated int
	for _, sh := range g.shards {
		if len(sh.users) > 0 {
			populated++
		}
		if sh.eng.Executed() == 0 && len(sh.users) > 0 {
			t.Errorf("shard with %d users ran no events", len(sh.users))
		}
	}
	if populated < 3 {
		t.Errorf("only %d of 4 shards populated", populated)
	}
}

// TestThinningAcceptsFinalAttempt is the regression test for the silent
// user drop: with a near-zero diurnal factor the thinning loop used to
// reject 1000 draws and return without scheduling anything, removing the
// user from the rest of the trace window. The final attempt must accept.
func TestThinningAcceptsFinalAttempt(t *testing.T) {
	p := DefaultProfile()
	// Amplitude 1e9 puts the diurnal trough at ~1e-9; PaperStart is
	// midnight with the peak at noon, so factors stay ≈0 near the start.
	p.Sessions = stats.Diurnal{PeakHour: 12, Amplitude: 1e9}
	cluster := server.NewCluster(server.Config{Seed: 5})
	g := New(Config{Users: 1, Days: 30, Seed: 5, Workers: 1, Profile: p, Attacks: []Attack{}}, cluster)
	u := &user{
		id:  1,
		rng: newURng(9),
		sh:  g.shards[0],
		par: params(Heavy),
		// Mean gaps of ~17ms keep all 1000 thinning draws pinned to the
		// midnight trough, where every one of them is rejected.
		rateBoost: 5_000_000,
	}
	g.scheduleNextSession(u, g.cfg.Start)
	at, ok := g.shards[0].eng.NextEventAt()
	if !ok {
		t.Fatal("thinning dropped the user: no session scheduled inside the window")
	}
	if at.Before(g.cfg.Start) || at.After(g.end) {
		t.Errorf("accepted session at %v, outside the window [%v, %v]", at, g.cfg.Start, g.end)
	}
}

func TestAttackInjection(t *testing.T) {
	attacks := []Attack{{Day: 0, Hour: 6, Duration: time.Hour, APIFactor: 50, AuthFactor: 10}}
	g, col, _ := runSmall(t, 100, 1, attacks, 5)
	if g.totals.AttackSessions == 0 {
		t.Fatal("no attack sessions ran")
	}
	// The attack hour must dominate the day's request counts.
	perHour := make([]int, 24)
	for _, r := range col.Records() {
		h := int(r.When().Sub(PaperStart) / time.Hour)
		if h >= 0 && h < 24 {
			perHour[h]++
		}
	}
	attackHour := perHour[6] + perHour[7]
	var rest, restHours int
	for h, n := range perHour {
		if h != 6 && h != 7 {
			rest += n
			restHours++
		}
	}
	if rest == 0 {
		t.Skip("baseline too small to compare")
	}
	baselinePerHour := float64(rest) / float64(restHours)
	if float64(attackHour)/2 < 5*baselinePerHour {
		t.Errorf("attack hours carry %d requests vs baseline %f/h; expected ≥5x spike",
			attackHour, baselinePerHour)
	}
}

func TestClassMixMatchesPaper(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := map[Class]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[PickClass(r)]++
	}
	want := map[Class]float64{Occasional: 0.8582, UploadOnly: 0.0722, DownloadOnly: 0.0234, Heavy: 0.0462}
	for class, share := range want {
		got := float64(counts[class]) / n
		if got < share*0.9 || got > share*1.1 {
			t.Errorf("class %v share = %v, want ≈ %v", class, got, share)
		}
	}
}

func TestExtensionCatalog(t *testing.T) {
	exts := DefaultExtensions()
	if len(exts) < 35 {
		t.Errorf("catalog has %d extensions", len(exts))
	}
	cats := map[Category]bool{}
	for _, e := range exts {
		cats[e.Cat] = true
		if e.Weight <= 0 {
			t.Errorf("extension %q has weight %v", e.Ext, e.Weight)
		}
		if e.Compress <= 0 || e.Compress > 1 {
			t.Errorf("extension %q has compressibility %v", e.Ext, e.Compress)
		}
	}
	for c := CatCode; c <= CatOther; c++ {
		if !cats[c] {
			t.Errorf("category %v has no extensions", c)
		}
		if c.String() == "" {
			t.Error("category must render")
		}
	}
}

func TestFileSizesMostlySmall(t *testing.T) {
	// 90% of files are smaller than 1 MB (§5.3); verify the catalog's
	// aggregate stays in that neighborhood.
	p := DefaultProfile()
	r := rand.New(rand.NewSource(3))
	var small, total int
	for i := 0; i < 50000; i++ {
		ext := p.PickExtension(r)
		if sampleSize(ext, r) < 1<<20 {
			small++
		}
		total++
	}
	frac := float64(small) / float64(total)
	if frac < 0.82 || frac > 0.97 {
		t.Errorf("small-file fraction = %v, want ≈ 0.90", frac)
	}
}

func TestSessionLengthShape(t *testing.T) {
	// 32% < 1 s and ≈97% < 8 h (§7.3).
	p := DefaultProfile()
	g := &Generator{prof: p}
	u := &user{rng: newURng(9)}
	var sub1s, sub8h, n int
	for i := 0; i < 30000; i++ {
		l := g.sessionLength(u)
		n++
		if l <= time.Second {
			sub1s++
		}
		if l <= 8*time.Hour {
			sub8h++
		}
	}
	if f := float64(sub1s) / float64(n); f < 0.28 || f > 0.37 {
		t.Errorf("sub-second sessions = %v, want ≈ 0.32", f)
	}
	if f := float64(sub8h) / float64(n); f < 0.94 || f > 0.995 {
		t.Errorf("sub-8h sessions = %v, want ≈ 0.97", f)
	}
}

func TestUserClassParamsComplete(t *testing.T) {
	for _, c := range []Class{Occasional, UploadOnly, DownloadOnly, Heavy} {
		par := params(c)
		if par.activeP <= 0 || par.activeP > 1 {
			t.Errorf("class %v activeP = %v", c, par.activeP)
		}
		if par.upP+par.downP > 1 {
			t.Errorf("class %v transfer probabilities exceed 1", c)
		}
		if par.weight == nil || par.sessionsPerDay <= 0 {
			t.Errorf("class %v incomplete params", c)
		}
		if c.String() == "" {
			t.Error("class must render")
		}
	}
}

func TestDefaultAttacksMatchPaperDays(t *testing.T) {
	atts := DefaultAttacks()
	if len(atts) != 3 {
		t.Fatalf("attacks = %d", len(atts))
	}
	days := []int{atts[0].Day, atts[1].Day, atts[2].Day}
	if days[0] != 4 || days[1] != 5 || days[2] != 26 {
		t.Errorf("attack days = %v, want Jan 15/16 + Feb 6 (4, 5, 26)", days)
	}
	if atts[1].APIFactor != 245 {
		t.Errorf("big attack factor = %v", atts[1].APIFactor)
	}
}

func TestTraceRoundTripFromGenerator(t *testing.T) {
	_, col, _ := runSmall(t, 60, 1, []Attack{}, 21)
	dir := t.TempDir()
	if err := col.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := trace.ReadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != col.Len() {
		t.Errorf("read %d records, wrote %d", len(ds.Records), col.Len())
	}
	if ds.BadLines != 0 {
		t.Errorf("bad lines = %d", ds.BadLines)
	}
	// Sessions must appear as auth/close pairs per session id.
	open := map[uint64]int{}
	for _, r := range ds.Records {
		if r.Kind == trace.KindSession {
			switch protocol.Op(r.Op) {
			case protocol.OpAuthenticate:
				open[r.Session]++
			case protocol.OpCloseSession:
				open[r.Session]--
			}
		}
	}
	for sess, n := range open {
		if n < 0 {
			t.Errorf("session %d closed more than opened", sess)
		}
	}
}

func TestRecentWindowCappedForWhales(t *testing.T) {
	// Whale regression: over a long window the heaviest users churn through
	// far more files than their recent-window cap, so any append site that
	// bypassed remember's trim would grow without bound. remember is the
	// single append site (audited — every other mutation only removes
	// entries), and this run would catch a regression of that invariant.
	g, _, _ := runSmall(t, 120, 10, []Attack{}, 9)
	var whales, capped int
	for _, u := range g.users {
		limit := u.recentCap
		if limit < 64 {
			limit = 64
		}
		if len(u.recent) > limit {
			t.Fatalf("user %d holds %d recent files, cap %d", u.id, len(u.recent), limit)
		}
		if u.recentCap > 64 {
			whales++
		}
		if len(u.recent) == limit {
			capped++
		}
	}
	if whales == 0 {
		t.Fatal("no user drew a whale-sized recent cap; population too small to exercise the invariant")
	}
	if capped == 0 {
		t.Fatal("no user ever filled its recent window; the cap was never exercised")
	}
}

// derivePopular is the reference the shard tables are checked against: the
// content drawn from a source made fresh for its rank, never a re-seeded one.
func (g *Generator) derivePopular(k popKey) popContent {
	return g.drawPopular(rand.New(stats.NewSplitmixSource(popSeed(k))), k)
}

// TestPopularContentMemoMatchesDerivation checks the per-shard table of
// popular content against a fresh derivation for ranks 1…10,000 of both
// universes, on the filling draw and on a hit — and that a hit allocates
// nothing.
func TestPopularContentMemoMatchesDerivation(t *testing.T) {
	g := New(Config{Users: 100, Days: 1, Seed: 5, Workers: 1}, server.NewCluster(server.Config{Seed: 5}))
	sh := g.shards[0]
	for rank := uint64(1); rank <= 10000; rank++ {
		for _, big := range []bool{false, true} {
			k := popKey{rank: rank, big: big}
			want := g.derivePopular(k)
			if want.ext == nil || want.size == 0 || want.hash.IsZero() {
				t.Fatalf("%+v derives an empty content %+v", k, want)
			}
			if got := g.popularContent(sh, k); got != want {
				t.Fatalf("%+v: first draw %+v, fresh derivation %+v", k, got, want)
			}
			if got := g.popularContent(sh, k); got != want {
				t.Fatalf("%+v: memo hit %+v, fresh derivation %+v", k, got, want)
			}
		}
	}
	if len(sh.popular) != 20000 {
		t.Errorf("table holds %d contents, want 20000", len(sh.popular))
	}
	k := popKey{rank: 17}
	if allocs := testing.AllocsPerRun(1000, func() { g.popularContent(sh, k) }); allocs != 0 {
		t.Errorf("a memo hit allocates %.0f times, want 0", allocs)
	}
}
