// Package metrics is the observability substrate of the reproduction: the
// instrumentation layer the paper's measurement methodology (§4–§6) implies
// but the seed lacked. It provides low-overhead, concurrency-safe primitives
// — atomic counters and gauges, lock-striped exponential-bucket histograms
// with quantile estimation — and a Registry that names them and exports
// consistent snapshots as JSON.
//
// Every tier of the Fig. 1 deployment records into one shared Registry:
// the gateway its placement decisions, the API servers per-operation latency
// and error counts, the RPC/DAL tier per-class service times, the metadata
// store per-shard lock hold times and cascade counters, the data store
// transfer volume, and the notification broker its fan-out. The benchmark
// (benchmark/) reads its per-layer counters from Registry snapshots;
// `u1 sim -report` and the chaos scenario reports fold them into per-op
// latency tables (OpStatsOf).
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The registry naming scheme the instrumented tiers follow. benchmark/,
// `u1 sim` and the scenario reports key off these prefixes, so they are part
// of the metrics API.
const (
	// APIOpPrefix + <OpName> + {".seconds"|".count"|".errors"} — per API
	// operation latency histogram and outcome counters (apiserver).
	APIOpPrefix = "api.op."
	// RPCPrefix + <dal.name> + ".seconds" — per-RPC service-time histograms;
	// RPCClassPrefix + <class> + ".seconds" aggregates them by paper class.
	RPCPrefix      = "rpc."
	RPCClassPrefix = "rpc.class."
	// ShardPrefix + <i> + {".reads"|".writes"} — per-shard op counters;
	// + {".read_hold.seconds"|".write_hold.seconds"} — lock hold times.
	ShardPrefix = "meta.shard."
	// FaultsPrefix + {"injected"|"shed"|"sso_shed"|"retried"|
	// "retry_succeeded"} — the apiserver's fault-injection /
	// admission-control / SSO-bucket / client-retry counters.
	FaultsPrefix = "faults."
	// WALPrefix + {"appends"|"snapshots"|"replayed"|"torn_bytes_dropped"|
	// "errors"|"journaled"} — the durable metadata tier's journal activity.
	WALPrefix = "wal."
	// ReplicationPrefix + {"published"|"applied"|"lww_skipped"|
	// "revoked_blocked"|"reads.local"|"reads.remote"|"reads.stale"} counters,
	// + "backlog.depth" gauge, + "lag.epochs" histogram — the cross-region
	// metadata replication tier.
	ReplicationPrefix = "repl."
)

// OpStats is one API operation's outcome counts and latency profile.
// Latencies are the simulated service times of the calibrated model, so they
// track the paper's Figs. 12–13 rather than host speed.
type OpStats struct {
	Count     uint64  `json:"count"`
	Errors    uint64  `json:"errors,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec"`
	MeanMs    float64 `json:"mean_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// OpStatsOf folds the snapshot's APIOpPrefix series into per-op stats keyed
// by op name. OpsPerSec is the op's count per wallSeconds; it stays zero when
// wallSeconds is not positive, for reports that must carry no wall-clock.
func OpStatsOf(snap Snapshot, wallSeconds float64) map[string]OpStats {
	ops := make(map[string]OpStats)
	for name, hist := range snap.Histograms {
		if !strings.HasPrefix(name, APIOpPrefix) || !strings.HasSuffix(name, ".seconds") {
			continue
		}
		op := strings.TrimSuffix(strings.TrimPrefix(name, APIOpPrefix), ".seconds")
		count := snap.Counters[APIOpPrefix+op+".count"]
		if count == 0 {
			count = hist.Count
		}
		st := OpStats{
			Count:  count,
			Errors: snap.Counters[APIOpPrefix+op+".errors"],
			MeanMs: hist.Mean * 1e3,
			P50Ms:  hist.P50 * 1e3,
			P95Ms:  hist.P95 * 1e3,
			P99Ms:  hist.P99 * 1e3,
		}
		if wallSeconds > 0 {
			st.OpsPerSec = float64(count) / wallSeconds
		}
		ops[op] = st
	}
	return ops
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that can move both ways (live
// sessions, queue depths, objects held).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: exponential buckets with ratio 2^(1/8) (≈9.05%
// per bucket, so quantiles interpolated at the geometric bucket midpoint are
// accurate to ≈±4.5%), spanning bucketMin to bucketMin·2^(numBuckets/8).
// With bucketMin = 1e-9 the top bucket boundary is ≈2.4e9, covering both
// latencies in seconds (sub-nanosecond to decades) and transfer sizes in
// bytes up to ~2 GB; values outside land in the first/last bucket, still
// counted exactly in Count and Sum.
const (
	histStripes    = 8 // power of two
	bucketsPerOct  = 8
	numBuckets     = 488 // 61 octaves ≈ 18.4 decades above bucketMin
	bucketMin      = 1e-9
	bucketLogRatio = 0.08664339756999316 // ln(2)/8
)

// histStripe is one write target of the striped histogram. Concurrent
// writers spread across stripes so the hot sum word does not bounce between
// cores; cache-line padding keeps neighbouring stripes from false sharing.
// Counts live only in the buckets — Snapshot derives the total by summing
// them, so Observe pays no separate counter update.
type histStripe struct {
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	_       [7]uint64     // pad to a 64-byte cache line
	buckets [numBuckets]atomic.Uint64
}

// Histogram is a lock-striped, fixed-bucket latency/size histogram. Observe
// is wait-free apart from the CAS loop on the per-stripe sum; Snapshot folds
// the stripes into one consistent view.
type Histogram struct {
	stripes [histStripes]histStripe
	// minBits/maxBits hold float64 bits, seeded to ±Inf so plain CAS loops
	// keep the true extremes under any interleaving.
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= bucketMin {
		return 0
	}
	// Subtracting logs (rather than dividing first) keeps huge values from
	// overflowing to +Inf before the conversion.
	i := int((math.Log(v) - math.Log(bucketMin)) / bucketLogRatio)
	if i < 0 {
		return 0
	}
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketBounds returns the [lo, hi) boundaries of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	lo = bucketMin * math.Exp(float64(i)*bucketLogRatio)
	hi = lo * math.Exp(bucketLogRatio)
	return lo, hi
}

// stripeProbe spreads concurrent writers across stripes. Goroutine stacks
// live in distinct allocations, so the page number of a stack address is a
// cheap, stable per-goroutine probe — the LongAdder trick without runtime
// hooks. The probe value itself is never dereferenced.
func stripeProbe() uint64 {
	var probe byte
	return (uint64(uintptr(unsafe.Pointer(&probe))) >> 10) & (histStripes - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	st := &h.stripes[stripeProbe()]
	st.buckets[bucketOf(v)].Add(1)
	for {
		old := st.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if st.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	h.updateExtremes(v)
}

func (h *Histogram) updateExtremes(v float64) {
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a frozen view of a histogram with derived statistics.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`

	buckets []uint64
}

// Snapshot folds the stripes into one view and derives the quantiles. Under
// concurrent writes the snapshot is a consistent lower bound: every recorded
// observation appears in at most one snapshot-visible state, and bucket
// counts always sum to Count observations that fully landed.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.buckets = make([]uint64, numBuckets)
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := 0; b < numBuckets; b++ {
			s.buckets[b] += st.buckets[b].Load()
		}
		s.Sum += math.Float64frombits(st.sumBits.Load())
	}
	// Derive Count from the folded buckets so quantile ranks and bucket
	// totals agree even when writers race the fold.
	for _, n := range s.buckets {
		s.Count += n
	}
	if s.Count == 0 {
		return s
	}
	if min := math.Float64frombits(h.minBits.Load()); !math.IsInf(min, 1) {
		s.Min = min
	}
	if max := math.Float64frombits(h.maxBits.Load()); !math.IsInf(max, -1) {
		s.Max = max
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot's buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 { return s.quantile(q) }

func (s HistogramSnapshot) quantile(q float64) float64 {
	if s.Count == 0 || s.buckets == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var acc float64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		if acc+float64(n) > rank {
			lo, hi := bucketBounds(i)
			// Geometric midpoint: exact to within the ±4.5% half-width of
			// the log-spaced bucket, and clamped to the observed extremes so
			// tiny samples do not report beyond min/max.
			est := math.Sqrt(lo * hi)
			if est > s.Max {
				est = s.Max
			}
			if est < s.Min {
				est = s.Min
			}
			return est
		}
		acc += float64(n)
	}
	return s.Max
}

// Registry names and owns a process's metrics. Lookup is get-or-create and
// safe for concurrent use; hot paths should resolve their handles once at
// construction time and record through the returned pointers.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry hands out an unregistered but fully functional counter, so
// components can be instrumented unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use (nil-safe).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = NewHistogram()
	r.histograms[name] = h
	return h
}

// Snapshot captures every registered metric. The snapshot is internally
// consistent per metric; across metrics it is a point-in-time read without a
// global stop-the-world, which matches how the production trace was cut.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry state. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range histograms {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns the sorted names of all registered metrics, for diagnostics.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
