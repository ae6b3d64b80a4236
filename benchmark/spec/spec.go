// Package spec is the benchmark's contract in one place: the five workload
// names and their frozen sizes, the twelve end-to-end metrics with unit,
// direction, regression bound and the workloads each is defined on, and the
// per-layer metrics with the end-to-end metric each should move. Every other
// benchmark package, BENCHMARK.json and the README are checked against these
// tables by the self-test, so a name cannot drift.
package spec

// Workload names. Later issues cite them; they are fixed.
const (
	SimScaleDay = "sim-scale-day"
	SimMonth    = "sim-month"
	SimDurable  = "sim-durable"
	TCPMeta     = "tcp-meta"
	TCPData     = "tcp-data"
)

// Sizes is the fixed work of one repetition. Sim workloads use Users and
// Days; TCP workloads use Users, FilesPerUser, Conns and OpsPerConn (client
// operations on tcp-meta, transfers on tcp-data).
type Sizes struct {
	Users        int `json:"users"`
	Days         int `json:"days,omitempty"`
	FilesPerUser int `json:"files_per_user,omitempty"`
	Conns        int `json:"conns,omitempty"`
	OpsPerConn   int `json:"ops_per_conn,omitempty"`
}

// Scaled returns the sizes with user and op counts multiplied by f (the
// self-test runs every workload at 1/100). Days, files per user and the
// connection count are part of the workload's shape and do not scale.
func (s Sizes) Scaled(f float64) Sizes {
	scale := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n) * f); v > min {
			return v
		}
		return min
	}
	s.Users = scale(s.Users, 4)
	s.OpsPerConn = scale(s.OpsPerConn, SessionOps)
	return s
}

// SessionOps is the number of warm client operations in one tcp-meta session
// (and transfers in one tcp-data session).
const SessionOps = 64

// Workload is one named set of inputs.
type Workload struct {
	Name  string
	Why   string // one line, copied into BENCHMARK.json
	Sizes Sizes
}

// RunSeconds is BENCHMARK.json's run_seconds, and RepSeconds what one
// repetition is sized to measure for on the sizing host (2 cores, go1.24).
const (
	RunSeconds = 12
	RepSeconds = 2.4
)

// Reps is how many repetitions a run asked to measure for the given seconds
// makes. It depends on the request alone, never on how fast the commit under
// test is, so two commits run the same work: 5 repetitions for RunSeconds.
func Reps(seconds int) int {
	return max(2, int(float64(seconds)/RepSeconds+0.5))
}

// RepSeed is the seed of repetition i of a run on seed. Every repetition of
// a run draws its own inputs: the sim populations are heavy-tailed (1 % of
// the users carry two thirds of the traffic), so at a size that fits the
// time budget one population's op mix, and with it every rate, swings by
// 10-25 % from seed to seed; the median over a fixed list of populations is
// what a run of a few seconds can report steadily.
func RepSeed(seed int64, i int) int64 {
	return seed*1000 + int64(i)
}

// Workloads lists the five workloads at their frozen sizes. Each is sized so
// that one repetition measures for RepSeconds, give or take a second, on the
// sizing host, and 114 runs of Reps(RunSeconds) repetitions fit the driver's
// 3420 s. That is the issue's sizing divided by four on the sim side and by
// about six on tcp-meta; tcp-data moves the issue's 1.5 GB per three
// repetitions because this host moves bytes four times faster than the
// issue's sizing lead assumed.
var Workloads = []Workload{
	{SimScaleDay, "25k users x 1 day, LowMem, delta logs off: population build, map growth, GC and per-session client rebuilds dominate",
		Sizes{Users: 25000, Days: 1}},
	{SimMonth, "1250 users x 30 days, the golden stream with trace collector: client sync, pipeline, rpc, shard ops and delta logs do the work",
		Sizes{Users: 1250, Days: 30}},
	{SimDurable, "sim-month's stack at 1000 users, journaled (async WAL) and replicated over 2 regions, then crash and cold reopen: journal path cost",
		Sizes{Users: 1000, Days: 30}},
	{TCPMeta, "2 closed-loop connections of small metadata requests through the gateway: per-request cost is the whole bill",
		Sizes{Users: 1000, FilesPerUser: 50, Conns: 2, OpsPerConn: 30000}},
	{TCPData, "2 closed-loop connections moving real bytes (4 KB to 12 MB, 17% dedup re-offers): per-byte cost dominates",
		Sizes{Users: 200, FilesPerUser: 12, Conns: 2, OpsPerConn: 1800}},
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// IsSim reports whether the workload runs on the simulator's virtual clock.
func IsSim(name string) bool {
	return name == SimScaleDay || name == SimMonth || name == SimDurable
}

// Directions.
const (
	Lower  = "lower"
	Higher = "higher"
)

// Metric is one end-to-end metric: what a user of the system would see.
type Metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which the metric may get
	// worse before a change counts as a regression.
	Bound float64
	// Workloads the metric is defined on; nil means all five.
	Workloads []string
	Def       string
}

var (
	simOnly = []string{SimScaleDay, SimMonth, SimDurable}
	metaTCP = []string{TCPMeta}
)

// EndToEnd lists the twelve end-to-end metrics. The four defined on every
// workload are the driver's end_to_end list in BENCHMARK.json; the driver
// wants every end-to-end metric from every workload, so the eight that exist
// on some workloads only are carried in its per_layer list under the same
// names and keep their bounds here for `repeat` and `compare`.
//
// A metric has one bound for all the workloads it is defined on, and the
// driver accepts the benchmark only if ten runs on ten different seeds spread
// (quartile distance over median) by less than it. So each bound is three
// times the widest such spread seen on any workload on the sizing host, but
// no more than the 0.25 the driver allows; README.md has the spreads.
// Two things set them. The sizing host is a shared 2-core VM whose speed
// swings by 10-15 % within minutes, so every metric made of host time spreads
// by 9-15 % on its noisiest workload and carries the widest bound. The two
// that count bytes repeat to 0.5 % on one seed list, but across seed lists a
// median of five populations still spreads by 2-4 %: below that no bound
// would pass the driver's own acceptance test.
var EndToEnd = []Metric{
	{"setup_s", "s", Lower, 0.25, nil,
		"process start to first measured request: OpenCluster, population build or preseed, payload set-up"},
	{"ops_per_s", "1/s", Higher, 0.25, nil,
		"API requests completed / measured-phase host seconds"},
	{"alloc_bytes_per_op", "B", Lower, 0.13, nil,
		"MemStats.TotalAlloc delta over the measured phase / API requests"},
	{"heap_bytes_per_user", "B", Lower, 0.10, nil,
		"HeapAlloc after runtime.GC() at end of run / users, cluster and load generator kept alive"},
	{"events_per_s", "1/s", Higher, 0.25, simOnly,
		"simulation events executed / steady-state host seconds (first API request to Run returning)"},
	{"failed_share", "ratio", Lower, 0.001, simOnly,
		"responses with status != OK / requests attempted; the seed determines it on sim-*, and on tcp-* it is a check: it must be 0"},
	{"recovery_s", "s", Lower, 0.25, []string{SimDurable},
		"crash every shard, then time a cold metadata.Open of the same directory"},
	{"read_p50_us", "us", Lower, 0.15, metaTCP,
		"client-observed round trip of Sync, ListVolumes, ListShares, median"},
	{"read_p99_us", "us", Lower, 0.25, metaTCP,
		"same, 99th percentile"},
	{"write_p50_us", "us", Lower, 0.15, metaTCP,
		"client-observed round trip of UploadSized, Mkdir, Move, Unlink, median"},
	{"write_p99_us", "us", Lower, 0.25, metaTCP,
		"same, 99th percentile"},
	{"mb_per_s", "MB/s", Higher, 0.25, []string{TCPData},
		"payload bytes uploaded + downloaded / measured-phase seconds, dedup-skipped bytes not counted"},
}

// DefinedOn reports whether the metric exists on the workload.
func (m Metric) DefinedOn(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// EndToEndByName returns the named end-to-end metric.
func EndToEndByName(name string) (Metric, bool) {
	for _, m := range EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Sources of a per-layer number.
const (
	Fixture = "F" // loop in benchmark/layers around the layer's public function
	Count   = "C" // counter or host-time histogram the program already exports
	Span    = "S" // span the benchmark records around its own call
)

// LayerMetric is one per-layer metric and the end-to-end metric it should
// move, stated before measuring.
type LayerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Source string
	Moves  string
}

// Layers lists the per-layer metrics, one layer per package under internal/.
var Layers = []LayerMetric{
	{"sim.event_ns", "ns", Lower, "sim", Fixture, "events_per_s on sim-scale-day and sim-month; nothing on tcp-*"},
	{"sim.event_allocs", "count", Lower, "sim", Fixture, "alloc_bytes_per_op on sim-*"},

	{"workload.preseed_us_per_user", "us", Lower, "workload", Span, "setup_s on sim-scale-day; about 0 on sim-month"},
	{"workload.events_per_op", "ratio", Lower, "workload", Count, "ties events_per_s to ops_per_s on sim-*"},
	{"workload.unattributed_share", "ratio", Lower, "workload", Count, "reconciliation remainder: measured time no layer fixture accounts for"},

	{"client.sync_ns", "ns", Lower, "client", Fixture, "events_per_s on sim-month (Sync is about a quarter of its bytes)"},
	{"client.sync_allocs", "count", Lower, "client", Fixture, "alloc_bytes_per_op on sim-month"},
	{"client.sync_bytes", "B", Lower, "client", Fixture, "alloc_bytes_per_op on sim-month"},
	{"client.connect_ns", "ns", Lower, "client", Fixture, "events_per_s on sim-scale-day (LowMem rebuilds the client per session)"},
	{"client.connect_bytes", "B", Lower, "client", Fixture, "alloc_bytes_per_op on sim-scale-day"},
	{"client.flate_ns_per_kb", "ns", Lower, "client", Fixture, "nothing in this benchmark: tcp-data drives the transport below Client.Upload"},
	{"client.self_us_per_op", "us", Lower, "client", Span, "read_p50_us and write_p50_us on tcp-meta; nothing on tcp-data"},

	{"wire.rt_small_ns", "ns", Lower, "wire", Fixture, "read_p50_us and write_p50_us on tcp-meta; nothing on sim-*"},
	{"wire.rt_small_allocs", "count", Lower, "wire", Fixture, "alloc_bytes_per_op on tcp-meta"},
	{"wire.rt_1mb_ns", "ns", Lower, "wire", Fixture, "mb_per_s on tcp-data"},
	{"wire.copy_bytes_per_payload_byte", "ratio", Lower, "wire", Fixture, "mb_per_s and alloc_bytes_per_op on tcp-data"},
	{"wire.loopback_rt_ns", "ns", Lower, "wire", Fixture, "read_p50_us and write_p50_us on tcp-meta: a request through the gateway crosses loopback twice each way"},

	{"gateway.place_ns", "ns", Lower, "gateway", Fixture, "session open on tcp-*; nothing on sim-*"},
	{"gateway.proxy_us", "us", Lower, "gateway", Span, "tcp-* latencies and ops_per_s; nothing on sim-*"},
	{"gateway.sessions_placed", "count", Higher, "gateway", Count, "count only: sessions the proxy placed"},

	{"apiserver.pipeline_ns", "ns", Lower, "apiserver", Fixture, "ops_per_s everywhere; largest share on tcp-meta reads and sim-month"},
	{"apiserver.pipeline_allocs", "count", Lower, "apiserver", Fixture, "alloc_bytes_per_op everywhere"},
	{"apiserver.self_ns.ListVolumes", "ns", Lower, "apiserver", Span, "read_p50_us on tcp-meta"},
	{"apiserver.self_ns.GetDelta", "ns", Lower, "apiserver", Span, "read_p50_us on tcp-meta"},
	{"apiserver.self_ns.MakeFile", "ns", Lower, "apiserver", Span, "write_p50_us on tcp-meta"},
	{"apiserver.self_ns.PutContent", "ns", Lower, "apiserver", Span, "write_p50_us on tcp-meta"},
	{"apiserver.self_ns.Move", "ns", Lower, "apiserver", Span, "write_p50_us on tcp-meta"},
	{"apiserver.self_ns.Unlink", "ns", Lower, "apiserver", Span, "write_p50_us on tcp-meta"},
	{"apiserver.session_ns", "ns", Lower, "apiserver", Fixture, "cold sessions on tcp-meta; sessions on sim-scale-day"},
	{"apiserver.requests", "count", Higher, "apiserver", Count, "count only: the denominator of every per-op figure"},
	{"apiserver.err_share", "ratio", Lower, "apiserver", Count, "failed_share on sim-*"},

	{"auth.issue_ns", "ns", Lower, "auth", Fixture, "setup_s on sim-scale-day (one Issue per user)"},
	{"auth.validate_ns", "ns", Lower, "auth", Fixture, "cold sessions on tcp-meta"},

	{"rpc.overhead_ns", "ns", Lower, "rpc", Fixture, "ops_per_s on every workload in proportion to rpc.calls_per_op"},
	{"rpc.overhead_allocs", "count", Lower, "rpc", Fixture, "alloc_bytes_per_op on every workload"},
	{"rpc.calls_per_op", "ratio", Lower, "rpc", Count, "scales rpc.overhead_ns into ops_per_s"},

	{"metadata.read_ns", "ns", Lower, "metadata", Fixture, "read_p50_us on tcp-meta, events_per_s on sim-*"},
	{"metadata.write_ns", "ns", Lower, "metadata", Fixture, "write_p50_us on tcp-meta, events_per_s on sim-*"},
	{"metadata.write_allocs", "count", Lower, "metadata", Fixture, "alloc_bytes_per_op on every workload"},
	{"metadata.write_bytes", "B", Lower, "metadata", Fixture, "alloc_bytes_per_op on every workload"},
	{"metadata.scratch_ns_per_node", "ns", Lower, "metadata", Fixture, "events_per_s on sim-scale-day (delta logs off); not sim-month"},
	{"metadata.journal_ns_per_mutation", "ns", Lower, "metadata", Fixture, "ops_per_s on sim-durable only; prediction on sim-month: none"},
	{"metadata.read_hold_s", "s", Lower, "metadata", Count, "host time under shard read locks in the measured run"},
	{"metadata.write_hold_s", "s", Lower, "metadata", Count, "host time under shard write locks in the measured run"},
	{"metadata.shard_cv", "ratio", Lower, "metadata", Count, "shard load balance; moves nothing at Workers=1"},

	{"blob.put_4k_ns", "ns", Lower, "blob", Fixture, "mb_per_s on tcp-data (small transfers)"},
	{"blob.put_1mb_ns", "ns", Lower, "blob", Fixture, "mb_per_s on tcp-data"},
	{"blob.get_1mb_ns", "ns", Lower, "blob", Fixture, "mb_per_s on tcp-data"},
	{"blob.put_sized_ns", "ns", Lower, "blob", Fixture, "a small share of events_per_s on sim-*; uploads on tcp-meta"},
	{"blob.put_s", "s", Lower, "blob", Count, "host time in blob puts in the measured run"},
	{"blob.get_s", "s", Lower, "blob", Count, "host time in blob gets in the measured run"},
	{"blob.dedup_hit_share", "ratio", Higher, "blob", Count, "share of uploads that skipped the transfer"},

	{"notify.publish_ns", "ns", Lower, "notify", Fixture, "a small share of ops_per_s on sim-month and tcp-meta writes"},
	{"notify.published", "count", Higher, "notify", Count, "count only"},
	{"notify.delivered", "count", Higher, "notify", Count, "count only"},
	{"notify.dropped_share", "ratio", Lower, "notify", Count, "wasted fan-out work"},

	{"wal.append_async_ns", "ns", Lower, "wal", Fixture, "ops_per_s on sim-durable; prediction elsewhere: none"},
	{"wal.append_group_ns", "ns", Lower, "wal", Fixture, "ops_per_s on sim-durable; prediction elsewhere: none"},
	{"wal.appends", "count", Higher, "wal", Count, "count only"},
	{"wal.syncs_per_append", "ratio", Lower, "wal", Fixture, "ops_per_s on sim-durable"},
	{"wal.disk_bytes_per_append", "B", Lower, "wal", Count, "recovery_s on sim-durable"},
	{"repl.published", "count", Higher, "wal", Count, "count only"},
	{"repl.applied", "count", Higher, "wal", Count, "count only"},
	{"metadata.recover_us_per_record", "us", Lower, "wal", Count, "recovery_s on sim-durable"},

	{"trace.collect_ns_per_record", "ns", Lower, "trace", Fixture, "ops_per_s on sim-month and sim-durable; none on sim-scale-day"},
	{"trace.bytes_per_record", "B", Lower, "trace", Fixture, "alloc_bytes_per_op and heap_bytes_per_user on sim-month and sim-durable"},

	{"proc.gc_cpu_share", "ratio", Lower, "process", Count, "events_per_s on sim-scale-day; shows why alloc_bytes_per_op matters"},
	{"proc.gc_cycles", "count", Lower, "process", Count, "events_per_s on sim-scale-day"},
	{"proc.peak_rss_mb", "MB", Lower, "process", Count, "memory ceiling of a run"},
	{"proc.allocs_per_op", "count", Lower, "process", Count, "alloc_bytes_per_op everywhere"},
	{"bench.trace_overhead_share", "ratio", Lower, "process", Count, "cost of the benchmark's own tracing: 1 - traced ops_per_s / untraced"},
}

// DriverEndToEnd returns the end-to-end metrics defined on every workload:
// the end_to_end list of BENCHMARK.json.
func DriverEndToEnd() []Metric {
	var out []Metric
	for _, m := range EndToEnd {
		if m.Workloads == nil {
			out = append(out, m)
		}
	}
	return out
}

// DriverPerLayer returns the per_layer list of BENCHMARK.json as (name, unit,
// better) triples: the end-to-end metrics that exist on some workloads only,
// then every per-layer metric.
func DriverPerLayer() []LayerMetric {
	var out []LayerMetric
	for _, m := range EndToEnd {
		if m.Workloads != nil {
			out = append(out, LayerMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Layer: "end-to-end", Moves: m.Def})
		}
	}
	return append(out, Layers...)
}
