package workload

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/server"
	"u1/internal/sim"
	"u1/internal/stats"
)

// Config parameterizes a trace generation run.
type Config struct {
	// Users is the population size (the paper traced 1.29M; the default
	// simulation scale is 1/500 of that region — 2000).
	Users int
	// Days is the trace window length (the paper: 30).
	Days int
	// Start is the first trace instant (the paper: 2014-01-11 00:00 UTC).
	Start time.Time
	// Seed drives all generator randomness.
	Seed int64
	// Workers is the number of parallel generator shards, each a
	// single-threaded event loop owning a stable subset of the population
	// (0 → 1, so the figures do not depend on the host). Any fixed
	// (Seed, Workers) reproduces the same Totals and per-user op streams
	// regardless of goroutine interleaving; at Workers=1 the trace itself
	// is byte-identical across runs.
	Workers int
	// Profile overrides the calibrated defaults.
	Profile *Profile
	// Attacks injects DDoS events; nil means DefaultAttacks. Use an empty
	// non-nil slice for an attack-free trace.
	Attacks []Attack
	// Retry is the per-client retry policy for transient per-op failures
	// (the behavior injected faults exercise). The zero value disables
	// retries, preserving the failure-free trace bit-for-bit.
	Retry client.Retry
	// ReconnectBackoff, when nonzero, makes a failed connection retry after
	// this backoff (plus a small per-user deterministic jitter) instead of
	// waiting for a fresh arrival draw — real desktop-client behavior, and
	// the knob that turns a server-side outage window into a post-recovery
	// thundering herd of reconnects. Zero preserves the original
	// reschedule-on-next-arrival behavior bit-for-bit.
	ReconnectBackoff time.Duration
	// LowMem shrinks per-user resident state for very large populations
	// (the million-user scale campaign): a user's client, with its
	// per-volume mirrors, the dominant per-user heap, is released on
	// disconnect and rebuilt on the next connection (the reconnect re-syncs
	// from scratch, like a fresh device). Every user draws from one
	// splitmix64 stream either way. The rescans change the op stream
	// relative to the default configuration, so LowMem runs are not
	// comparable with the committed goldens; determinism for a fixed
	// (Seed, Workers, LowMem) still holds.
	LowMem bool
}

// Validate rejects a config with a negative count or duration, which New
// would otherwise replace by its default or take as is. Zero keeps meaning
// "the default". Each error names the offending field.
func (cfg Config) Validate() error {
	switch {
	case cfg.Users < 0:
		return fmt.Errorf("workload: negative Users %d", cfg.Users)
	case cfg.Days < 0:
		return fmt.Errorf("workload: negative Days %d", cfg.Days)
	case cfg.Workers < 0:
		return fmt.Errorf("workload: negative Workers %d", cfg.Workers)
	case cfg.ReconnectBackoff < 0:
		return fmt.Errorf("workload: negative ReconnectBackoff %v", cfg.ReconnectBackoff)
	case cfg.Retry.Max < 0:
		return fmt.Errorf("workload: negative Retry.Max %d", cfg.Retry.Max)
	case cfg.Retry.Backoff < 0:
		return fmt.Errorf("workload: negative Retry.Backoff %v", cfg.Retry.Backoff)
	}
	return nil
}

// PaperStart is the first day of the original trace (January 11, 2014).
var PaperStart = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

// Totals summarizes a generation run.
type Totals struct {
	Users          int
	Sessions       uint64
	FailedAuths    uint64
	Uploads        uint64
	Downloads      uint64
	Deletes        uint64
	AttackSessions uint64
}

// add merges per-shard totals into the run summary.
func (t *Totals) add(o Totals) {
	t.Sessions += o.Sessions
	t.FailedAuths += o.FailedAuths
	t.Uploads += o.Uploads
	t.Downloads += o.Downloads
	t.Deletes += o.Deletes
	t.AttackSessions += o.AttackSessions
}

// genShard is the per-shard generator state: one single-threaded event loop
// plus every mutable source the serial generator used to share. Each user is
// pinned to one shard; a shard's state is only ever touched from its own
// event goroutine, so shards need no locks and each shard's stream is
// deterministic in isolation.
type genShard struct {
	eng  *sim.Engine
	prof *Profile
	// zipf and bigZipf draw popular-content ranks. Per-shard streams seeded
	// from (Seed, shard) keep draws lock-free and reproducible.
	zipf    *stats.Zipf
	bigZipf *stats.Zipf
	// users lists the shard's population in global creation order (share
	// targets are drawn from here, keeping cross-user interactions inside
	// the shard's deterministic event order).
	users  []*user
	totals Totals
	// names interns the rare file names outside the synthetic grammar, so a
	// fileRef never carries a heap string; nameIdx is its reverse map, built
	// lazily (both stay empty on the default profile's grammar). Per-shard
	// tables keep interning lock-free under parallel generation.
	names   []string
	nameIdx map[string]uint32
	// popular memoizes popularContent, filled on first draw of a rank. A
	// shard-local table stays lock-free under parallel generation, and a
	// Zipf stream revisits few ranks often, so nearly every draw is a hit.
	popular map[popKey]popContent
	// popRng is the scratch source popularContent re-seeds for every first
	// draw of a rank (Seed(s) leaves a source as a fresh one of seed s, and
	// the derivation is synchronous, so nothing interleaves on it): one
	// splitmix64 source per shard, never one per rank.
	popRng *rand.Rand
}

// popKey names one popular content: its Zipf rank in the large-file universe
// or the general one.
type popKey struct {
	rank uint64
	big  bool
}

// popContent is what every upload of one popular content shares.
type popContent struct {
	ext  *ExtProfile
	size uint64
	hash protocol.Hash
}

// internName returns name's index in the shard's intern table, adding it on
// first sight.
func (sh *genShard) internName(name string) uint32 {
	if i, ok := sh.nameIdx[name]; ok {
		return i
	}
	if sh.nameIdx == nil {
		sh.nameIdx = make(map[string]uint32)
	}
	i := uint32(len(sh.names))
	sh.names = append(sh.names, name)
	sh.nameIdx[name] = i
	return i
}

// Generator drives the synthetic population.
type Generator struct {
	cfg  Config
	prof *Profile
	c    *server.Cluster
	se   *sim.ShardedEngine
	end  time.Time

	// rng is the population-build source. It is only drawn from during the
	// serial setup phase of Run (class assignment), never from shard events.
	rng *rand.Rand

	shards []*genShard
	users  []*user
	totals Totals

	// idleAttackRngs are the random sources of attack sessions that have
	// ended, kept for the sessions to come (see attackSession). Attack events
	// all run on shard 0, so the list needs no lock.
	idleAttackRngs []*rand.Rand
}

// user is the per-account simulation state.
type user struct {
	id     protocol.UserID
	sh     *genShard
	class  Class
	par    *classParams
	weight float64
	token  [16]byte // raw auth token; hex-encoded at connect time
	rng    *urng

	cli     *client.Client
	online  bool
	udfs    int
	maxUDFs int
	seq     uint64 // unique content counter
	// sizeBias scales this user's file sizes: the heaviest users are the
	// ones storing large media/datasets, which concentrates traffic into
	// the top percentile (Fig. 7c).
	sizeBias float64
	// rateBoost raises session frequency for heavy users.
	rateBoost float64
	// recentCap bounds the working set; heavy users churn over much larger
	// sets (a whale's operations spread over thousands of files, not 64).
	recentCap int

	// recent remembers recently created files for recency-biased deletes,
	// updates and sync-back downloads.
	recent []fileRef
	// files is the ordered list of live files the user knows about; picks
	// draw from it deterministically (map iteration order never leaks into
	// the simulation).
	files []fileRef
	// udfVols lists the user's UDF volumes in creation order (nil until the
	// first UDF exists).
	udfVols []protocol.VolumeID
	// dirs lists upload target directories per volume. The map materializes
	// lazily on the first directory creation — most of a large population
	// never makes one, and a million empty maps are real memory.
	dirs map[protocol.VolumeID][]protocol.NodeID
}

// addDir records a new upload-target directory, materializing the per-user
// map on first use. Readers treat a nil map and a missing key identically,
// so laziness never shows up in behavior.
func (u *user) addDir(vol protocol.VolumeID, id protocol.NodeID) {
	if u.dirs == nil {
		u.dirs = make(map[protocol.VolumeID][]protocol.NodeID, 1)
	}
	u.dirs[vol] = append(u.dirs[vol], id)
}

// fileRef identifies one live file in a user's working set, compactly. Every
// name the generator produces follows the synthetic grammar —
// "f<uid>-<seq>[.<ext>]" for uploads and preseeds, "m<uid>-<seq>" for moves —
// so the name lives as two integers plus a catalog index for the suffix
// instead of a heap string, and the extension profile is likewise a catalog
// index instead of a pointer: 40 bytes per ref, nothing on the heap. A name
// outside the grammar (possible only under a custom profile) falls back to
// the owning shard's intern table (kind 0, seq = table index). At a million
// users the files/recent slices are the bulk of generator-owned state, which
// is what this representation is for.
type fileRef struct {
	vol     protocol.VolumeID
	node    protocol.NodeID
	parent  protocol.NodeID
	uid     uint32 // user id embedded in the name
	seq     uint32 // per-user sequence embedded in the name
	ext     uint16 // catalog index of the extension profile
	nameExt uint16 // catalog index of the name's suffix ("" entry = none)
	kind    uint8  // name grammar: 'f', 'm', or 0 = interned irregular name
}

// fileName reconstructs the node name byte-for-byte as it was created.
func (f fileRef) fileName(sh *genShard) string {
	if f.kind == 0 {
		return sh.names[f.seq]
	}
	name := fmt.Sprintf("%c%d-%d", f.kind, f.uid, f.seq)
	if ext := sh.prof.Extensions[f.nameExt].Ext; ext != "" {
		name += "." + ext
	}
	return name
}

// extProfile resolves the file's extension profile from the catalog.
func (f fileRef) extProfile(sh *genShard) *ExtProfile {
	return &sh.prof.Extensions[f.ext]
}

// fileRefFor compacts a node name (typically read back from a mirror) into a
// fileRef: grammar names pack into integers, anything else interns whole.
// The extension profile follows ExtByName(extFromName(name)) semantics.
func (sh *genShard) fileRefFor(vol protocol.VolumeID, node, parent protocol.NodeID, name string) fileRef {
	f := fileRef{vol: vol, node: node, parent: parent}
	if uid, seq, suffix, kind, ok := parseSyntheticName(name); ok {
		if idx, found := sh.prof.extIndexByName(suffix); found {
			f.uid, f.seq, f.kind = uid, seq, kind
			f.nameExt, f.ext = idx, idx
			return f
		}
	}
	f.kind = 0
	f.seq = sh.internName(name)
	f.ext = sh.prof.extIndexLoose(extFromName(name))
	return f
}

// parseSyntheticName splits a grammar name into its numeric parts and suffix.
// Reconstruction must be exact, so digit runs with leading zeros (which
// fmt.Sprintf never emits) and out-of-range values are rejected.
func parseSyntheticName(name string) (uid, seq uint32, suffix string, kind uint8, ok bool) {
	if len(name) < 4 || (name[0] != 'f' && name[0] != 'm') {
		return 0, 0, "", 0, false
	}
	kind = name[0]
	rest := name[1:]
	uid64, n := parseUint32Prefix(rest)
	if n == 0 || n >= len(rest) || rest[n] != '-' {
		return 0, 0, "", 0, false
	}
	rest = rest[n+1:]
	seq64, n := parseUint32Prefix(rest)
	if n == 0 {
		return 0, 0, "", 0, false
	}
	rest = rest[n:]
	if rest != "" {
		if rest[0] != '.' {
			return 0, 0, "", 0, false
		}
		suffix = rest[1:]
		if suffix == "" {
			return 0, 0, "", 0, false // "f1-2." would rebuild as "f1-2"
		}
	}
	return uid64, seq64, suffix, kind, true
}

// parseUint32Prefix parses the leading canonical (no leading zero) decimal
// run of s, returning the value and the number of bytes consumed (0 = no
// canonical run, or overflow).
func parseUint32Prefix(s string) (uint32, int) {
	var v uint64
	var n int
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		v = v*10 + uint64(s[n]-'0')
		if v > math.MaxUint32 {
			return 0, 0
		}
		n++
	}
	if n == 0 || (s[0] == '0' && n > 1) {
		return 0, 0
	}
	return uint32(v), n
}

// shardSeed derives a per-shard seed for a generator random source. Shard 0
// takes seed+base itself, so a one-shard run and shard 0 of a wider one
// draw the same stream; higher shards scramble (seed+base, shard) through
// splitmix64 so nearby seeds do not alias across shards (the rpc tier's
// per-proc idiom).
func shardSeed(seed, base int64, shard int) int64 {
	if shard == 0 {
		return seed + base
	}
	return int64(stats.Splitmix64(uint64(seed+base) + uint64(shard)*stats.Splitmix64Gamma))
}

// New creates a generator bound to a cluster. The generator owns its sharded
// event engine, sized by cfg.Workers; Engine exposes it for event counting.
func New(cfg Config, c *server.Cluster) *Generator {
	if cfg.Users <= 0 {
		cfg.Users = 2000
	}
	if cfg.Days <= 0 {
		cfg.Days = 30
	}
	if cfg.Start.IsZero() {
		cfg.Start = PaperStart
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Profile == nil {
		cfg.Profile = DefaultProfile()
	}
	if cfg.Attacks == nil {
		cfg.Attacks = DefaultAttacks()
	}
	g := &Generator{
		cfg:  cfg,
		prof: cfg.Profile,
		c:    c,
		se:   sim.NewSharded(cfg.Start, cfg.Workers, sim.DefaultEpoch),
		end:  cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	zipfN := g.prof.ZipfN
	if zipfN == 0 {
		// Auto-scale the content universe with the population so the dedup
		// ratio stays near the paper's 0.171 at any simulation scale.
		zipfN = uint64(cfg.Users) * 3 / 2
		if zipfN < 500 {
			zipfN = 500
		}
	}
	bigN := uint64(cfg.Users) / 8
	if bigN < 60 {
		bigN = 60
	}
	g.shards = make([]*genShard, g.se.NumShards())
	for i := range g.shards {
		g.shards[i] = &genShard{
			eng:  g.se.Shard(i),
			prof: g.prof,
			zipf: stats.NewZipf(rand.New(rand.NewSource(
				shardSeed(cfg.Seed, 7, i))), g.prof.ZipfS, zipfN),
			bigZipf: stats.NewZipf(rand.New(rand.NewSource(
				shardSeed(cfg.Seed, 13, i))), 1.25, bigN),
		}
	}
	return g
}

// Engine returns the generator's sharded event engine (event counts,
// epoch-boundary hooks).
func (g *Generator) Engine() *sim.ShardedEngine { return g.se }

// Run builds the population, schedules everything and drains the engine. It
// returns the run totals.
//
// Population build and scheduling are serial (a pure function of Seed, in
// global user order); only the event drain is parallel. Each user's events
// run on the shard owning it, so the per-user op stream is a function of
// (Seed, Workers) alone, and the merged Totals are reproducible regardless
// of how shard goroutines interleave.
func (g *Generator) Run() Totals {
	g.users = make([]*user, g.cfg.Users)
	for i := range g.users {
		u := &user{
			id:    protocol.UserID(i + 1),
			class: PickClass(g.rng),
			rng:   newURng(g.cfg.Seed + int64(i)*7919),
		}
		u.sh = g.shards[g.se.ShardFor(uint64(u.id))]
		u.sh.users = append(u.sh.users, u)
		u.par = params(u.class)
		u.weight = u.par.weight.Sample(u.rng)
		u.sizeBias = clamp(math.Pow(u.weight, 0.4), 0.5, 4)
		u.rateBoost = clamp(math.Pow(u.weight, 0.45), 1, 8)
		u.recentCap = int(clamp(64*math.Sqrt(u.weight), 64, 2048))
		// 58% of users create at least one UDF (§6.3).
		if u.rng.Float64() < 0.58 {
			u.maxUDFs = 1 + u.rng.Intn(4)
		}
		token, err := g.c.Auth.Issue(u.id)
		if err != nil {
			panic(fmt.Sprintf("workload: issuing token: %v", err))
		}
		// Retain the raw 16 bytes, not the 32-byte hex string: a heap
		// string per user is real memory at a million users.
		if _, err := hex.Decode(u.token[:], []byte(token)); err != nil {
			panic(fmt.Sprintf("workload: decoding token: %v", err))
		}
		g.preseed(u)
		g.users[i] = u
		g.scheduleNextSession(u, g.cfg.Start)
	}
	g.totals.Users = len(g.users)

	for _, a := range g.cfg.Attacks {
		g.scheduleAttack(a)
	}

	// A sentinel event parks the final epoch at the window end: epochs only
	// advance while events remain, and without it a population that goes
	// quiet early would end the run before the window's last barrier.
	g.se.Shard(0).At(g.end, func() {})
	// At every barrier, with every shard quiescent: the periodic work.
	g.se.AtEpochEnd(g.c.Tick)

	g.se.Run()
	for _, sh := range g.shards {
		g.totals.add(sh.totals)
	}
	return g.totals
}

// preseed provisions the files a user accumulated before the trace window
// (half of U1's 137M files predate the month; download-only users in
// particular consume content uploaded earlier or from other devices). The
// writes go straight to the metadata and data stores, leaving no trace
// records — exactly like pre-window history.
func (g *Generator) preseed(u *user) {
	var k int
	switch u.class {
	case Occasional:
		k = u.rng.Intn(9)
	case UploadOnly:
		k = 3 + u.rng.Intn(18)
	case DownloadOnly:
		k = 30 + u.rng.Intn(120)
	default: // Heavy
		k = 20 + u.rng.Intn(100)
	}
	if k == 0 {
		return
	}
	store := g.c.Store
	root, err := store.CreateUser(u.id)
	if err != nil {
		return
	}
	for i := 0; i < k; i++ {
		ext := g.prof.PickExtension(u.rng)
		size := sampleSize(ext, u.rng)
		h := g.pickHash(u, &ext, &size)
		u.seq++
		name := fmt.Sprintf("f%d-%d", u.id, u.seq)
		if ext.Ext != "" {
			name += "." + ext.Ext
		}
		node, err := store.MakeFile(u.id, root.ID, 0, name)
		if err != nil {
			continue
		}
		if _, _, _, err := store.MakeContent(u.id, root.ID, node.ID, h, size); err != nil {
			continue
		}
		g.c.Blob.PutHashSized(h, size)
	}
}

// pickHash draws content identity: popular Zipf content (with its
// deterministic extension and size) or unique content. Large candidate
// files get their own popular universe — everyone stores the same albums,
// movies and installers, which is where the byte-level dedup savings of
// §5.3 come from. Popularity ranks come from the user's shard-local Zipf
// sources, so concurrent shards never contend (or race) on one stream.
func (g *Generator) pickHash(u *user, ext **ExtProfile, size *uint64) protocol.Hash {
	if *size > 5<<20 && u.rng.Float64() < 0.35 {
		c := g.popularContent(u.sh, popKey{rank: u.sh.bigZipf.Rank(), big: true})
		*ext, *size = c.ext, c.size
		return c.hash
	}
	if u.rng.Float64() < g.prof.PopularContentP {
		c := g.popularContent(u.sh, popKey{rank: u.sh.zipf.Rank()})
		*ext, *size = c.ext, c.size
		return c.hash
	}
	u.seq++
	return protocol.HashBytes([]byte(fmt.Sprintf("u%d-c%d", u.id, u.seq)))
}

// popularContent returns the extension, size and hash of a popular content
// from the shard's table, deriving it on the first draw of its rank.
func (g *Generator) popularContent(sh *genShard, k popKey) popContent {
	c, ok := sh.popular[k]
	if !ok {
		if sh.popular == nil {
			sh.popular = make(map[popKey]popContent)
			sh.popRng = rand.New(stats.NewSplitmixSource(0))
		}
		sh.popRng.Seed(popSeed(k))
		c = g.drawPopular(sh.popRng, k)
		sh.popular[k] = c
	}
	return c
}

// popSeed is the seed of the random source a popular content is drawn from:
// a function of its rank alone, so every uploader of the content, on any
// shard, agrees on its extension and size.
func popSeed(k popKey) int64 {
	if k.big {
		return int64(k.rank) * 31
	}
	return int64(k.rank)
}

// drawPopular computes a popular content from a source seeded with
// popSeed(k).
func (g *Generator) drawPopular(popRng *rand.Rand, k popKey) popContent {
	var c popContent
	if k.big {
		c.ext = g.prof.ExtByName(bigContentExts[popRng.Intn(len(bigContentExts))])
		c.size = uint64(stats.LognormalFromMedian(25<<20, 3).Sample(popRng))
		c.hash = protocol.HashBytes([]byte(fmt.Sprintf("popbig-%d", k.rank)))
	} else {
		c.ext = g.prof.PickPopularExtension(popRng)
		c.size = sampleSize(c.ext, popRng)
		c.hash = protocol.HashBytes([]byte(fmt.Sprintf("pop-%d", k.rank)))
	}
	return c
}

// bigContentExts are the types of widely duplicated large contents.
var bigContentExts = []string{"mp4", "avi", "mkv", "zip", "tar", "mp3"}

// shard0 returns the shard carrying cluster-scoped work (attacks).
func (g *Generator) shard0() *genShard { return g.shards[0] }

// hourOf returns the fractional hour-of-day and weekday of t.
func hourOf(t time.Time) (float64, int) {
	return float64(t.Hour()) + float64(t.Minute())/60, int(t.Weekday())
}

// maxThinningAttempts bounds the session-arrival thinning loop.
const maxThinningAttempts = 1000

// scheduleNextSession draws the next session start by thinning an
// exponential arrival stream against the diurnal profile. The final attempt
// accepts its draw unconditionally: a pathological profile (a near-zero
// diurnal trough) must delay the next session, not silently drop the user
// for the rest of the trace window.
func (g *Generator) scheduleNextSession(u *user, from time.Time) {
	meanGap := 24 * time.Hour
	if rate := u.par.sessionsPerDay * u.rateBoost; rate > 0 {
		meanGap = time.Duration(float64(24*time.Hour) / rate)
	}
	const fMax = 1.15 // peak diurnal factor incl. Monday boost
	t := from
	for i := 0; i < maxThinningAttempts; i++ {
		gap := time.Duration(u.rng.ExpFloat64() * float64(meanGap))
		t = t.Add(gap)
		if t.After(g.end) {
			return // user never connects again inside the window
		}
		h, wd := hourOf(t)
		if i == maxThinningAttempts-1 || u.rng.Float64() < g.prof.Sessions.Factor(h, wd)/fMax {
			at := t
			u.sh.eng.At(at, func() { g.startSession(u) })
			return
		}
	}
}

// startSession opens a session for u and schedules its activity.
func (g *Generator) startSession(u *user) {
	eng := u.sh.eng
	if u.online {
		// The previous session is still running (overlap after a long
		// active burst); try again later.
		g.scheduleNextSession(u, eng.Now())
		return
	}
	if u.cli == nil {
		tr := client.NewDirectTransport(g.c.LeastLoaded, eng.Clock())
		u.cli = client.New(tr)
		u.cli.Retry = g.cfg.Retry
	}
	if err := u.cli.Connect(hex.EncodeToString(u.token[:])); err != nil {
		// Auth failures happen (§7.3: 2.76%); the desktop client retries on
		// its next scheduled connection — or, with ReconnectBackoff set, on a
		// short jittered backoff, so an outage ends in a reconnect herd. The
		// jitter draws from the user's own rng inside the user's own event,
		// which keeps the stream deterministic at any worker count.
		u.sh.totals.FailedAuths++
		if b := g.cfg.ReconnectBackoff; b > 0 {
			at := eng.Now().Add(b + time.Duration(u.rng.Float64()*float64(b)/4))
			if !at.After(g.end) {
				eng.At(at, func() { g.startSession(u) })
			}
			return
		}
		g.scheduleNextSession(u, eng.Now())
		return
	}
	u.online = true
	u.sh.totals.Sessions++

	now := eng.Now()
	length := g.sessionLength(u)
	sessionEnd := now.Add(length)

	// Sub-second NAT-churn sessions do nothing but exist (§7.3).
	if length < 5*time.Second {
		eng.At(sessionEnd, func() { g.endSession(u) })
		return
	}

	// First proper session: users who configure extra synced folders create
	// their first UDF right away (58% of users end up with one, §6.3).
	if u.udfs == 0 && u.maxUDFs > 0 {
		if v, err := u.cli.CreateUDF(fmt.Sprintf("~/UDF-%d-0", u.id)); err == nil {
			u.udfs = 1
			u.udfVols = append(u.udfVols, v.ID)
		}
	}

	// Accept pending share offers, then synchronize mirrors (the
	// "generation point" run on every connection, §3.4.2).
	g.acceptPendingShares(u)
	g.syncMirrors(u)
	if len(u.files) == 0 {
		g.adoptMirrorFiles(u)
	}

	h, wd := hourOf(now)
	activeP := u.par.activeP * g.prof.Activity.Factor(h, wd)
	if u.rng.Float64() < activeP {
		ops := int(g.prof.OpsPerActiveSession.Sample(u.rng) * scaleWeight(u.weight))
		if ops < 1 {
			ops = 1
		}
		if ops > 50000 {
			ops = 50000
		}
		// Long op chains belong to long sessions (Fig. 16: active sessions
		// are much longer than cold ones; the most active 20% of sessions
		// carry 96.7% of operations). Stretch the session to fit its work.
		if need := time.Duration(ops) * 15 * time.Second; length < need {
			sessionEnd = now.Add(need)
		}
		run := &sessionRun{g: g, u: u, end: sessionEnd, opsLeft: ops}
		run.next = run.step
		eng.After(g.intraGap(u), run.next)
	}
	eng.At(sessionEnd, func() { g.endSession(u) })
}

// scaleWeight converts the user's long-run weight into a per-session ops
// multiplier. The square root compresses the cross-user range (which spans
// orders of magnitude to produce the traffic Gini) into what one session can
// plausibly hold; the rest of the skew comes from heavy users having more
// and longer sessions.
func scaleWeight(w float64) float64 {
	return clamp(math.Sqrt(w), 0.2, 12)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func (g *Generator) endSession(u *user) {
	if !u.online {
		return
	}
	u.online = false
	u.cli.Disconnect() //nolint:errcheck
	if g.cfg.LowMem {
		// Release the client and its mirrors while the user is offline; the
		// next startSession rebuilds it and re-syncs from the server. The
		// per-user fileRef working set survives, so behavior stays closed
		// over a reconnect — only the delta-vs-rescan sync mix changes.
		u.cli = nil
	}
	g.scheduleNextSession(u, u.sh.eng.Now())
}

func (g *Generator) sessionLength(u *user) time.Duration {
	var secs float64
	if u.rng.Float64() < g.prof.ShortSessionP {
		secs = g.prof.ShortSession.Sample(u.rng)
	} else {
		secs = g.prof.SessionBody.Sample(u.rng)
		if cap := 7 * 24 * 3600.0; secs > cap {
			secs = cap
		}
	}
	return time.Duration(secs * float64(time.Second))
}

func (g *Generator) acceptPendingShares(u *user) {
	shares, err := u.cli.ListShares()
	if err != nil {
		return
	}
	for _, sh := range shares {
		if sh.SharedTo == u.id && !sh.Accepted {
			u.cli.AcceptShare(sh.ID) //nolint:errcheck
		}
	}
}

// adoptMirrorFiles seeds the user's working set from the mirror after the
// first synchronization (pre-window files become download candidates).
func (g *Generator) adoptMirrorFiles(u *user) {
	root, ok := u.cli.RootVolume()
	if !ok {
		return
	}
	m, ok := u.cli.Mirror(root)
	if !ok {
		return
	}
	ids := make([]protocol.NodeID, 0, len(m.Nodes))
	for id, info := range m.Nodes {
		if info.Kind == protocol.KindFile && !info.Hash.IsZero() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if cap(u.files)-len(u.files) < len(ids) {
		// Exact-capacity growth: append's doubling would strand ~a third of
		// the backing array across a million users' working sets.
		grown := make([]fileRef, len(u.files), len(u.files)+len(ids))
		copy(grown, u.files)
		u.files = grown
	}
	for _, id := range ids {
		info := m.Nodes[id]
		u.files = append(u.files, u.sh.fileRefFor(root, id, info.Parent, info.Name))
	}
}

func (g *Generator) syncMirrors(u *user) {
	vols, err := u.cli.ListVolumes()
	if err != nil {
		return
	}
	for _, v := range vols {
		u.cli.Sync(v.ID) //nolint:errcheck
	}
}

func (g *Generator) intraGap(u *user) time.Duration {
	return time.Duration(g.prof.IntraBurstGap.Sample(u.rng) * float64(time.Second))
}

func (g *Generator) interGap(u *user) time.Duration {
	return time.Duration(g.prof.InterBurstGap.Sample(u.rng) * float64(time.Second))
}
