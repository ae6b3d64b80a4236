// Package workloads runs one repetition of one of the five benchmark
// workloads in the calling process and returns its measurements. Every layer
// is measured from outside: the package times its own calls into public
// functions, reads the cluster's metrics.Registry after the measured phase,
// and attaches API/RPC observers; it changes nothing in the program.
package workloads

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"u1/benchmark/spans"
	"u1/benchmark/spec"
	"u1/internal/protocol"
)

// Options selects and parameterizes one repetition.
type Options struct {
	Workload string
	Seed     int64
	// Scale multiplies the frozen user and op counts; 0 means 1. Only the
	// self-test runs at another scale.
	Scale float64
	// Start is the process start, the origin of setup_s. Zero means now.
	Start time.Time
	// Dir is the scratch directory sim-durable journals under.
	Dir string
	// Traced attaches the benchmark's counting observers (sim-*) or records
	// a span around every session, client call and Transport.Do (tcp-*).
	Traced bool
	// Spans receives the spans of a traced TCP run; nil keeps them to the
	// run itself. Ignored unless Traced.
	Spans *spans.Recorder
	// Fault plants a defect for the self-test, to show that a correctness
	// check can fail: FaultDropNode, FaultFlipByte or FaultTornJournal.
	Fault string
}

// Planted faults.
const (
	FaultDropNode    = "drop-node"    // tcp-*: forget one created node in the load generator's model
	FaultFlipByte    = "flip-byte"    // tcp-data: flip one byte of a downloaded payload before verifying
	FaultTornJournal = "torn-journal" // sim-durable: cut a journal short before the cold reopen
)

// Check is one correctness check of a repetition.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is what one repetition measured.
type Result struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Sizes    spec.Sizes `json:"sizes"`
	Traced   bool       `json:"traced"`
	// Metrics holds the end-to-end metrics defined on the workload.
	Metrics map[string]float64 `json:"metrics"`
	// Layers holds the per-layer counts and spans (sources C and S) this
	// repetition yields; fixtures are measured separately.
	Layers map[string]float64 `json:"layers"`
	// Counts holds raw event counts the reconciliation multiplies with
	// fixture costs, keyed by fixture metric name.
	Counts map[string]float64 `json:"counts"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Attempted is API requests sent; Failed those the back-end could not
	// serve (unavailable, overloaded, cancelled, transport error, any
	// non-OK answer on tcp-*); Refused those it answered with a refusal the
	// workload provokes on purpose (injected SSO failures, stale node ids).
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Refused   uint64 `json:"refused"`
	// Fingerprint digests the seed-determined counts of a sim run.
	Fingerprint     string  `json:"stream_fingerprint,omitempty"`
	MeasuredSeconds float64 `json:"measured_seconds"`
	// Loops is how many closed loops shared the measured seconds (1 event
	// loop on sim-*, the connection count on tcp-*).
	Loops  int     `json:"loops"`
	Checks []Check `json:"checks"`
}

// Correct reports whether every check passed.
func (r *Result) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// Run executes one repetition.
func Run(o Options) (*Result, error) {
	w, ok := spec.WorkloadByName(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Start.IsZero() {
		o.Start = time.Now()
	}
	switch {
	case !o.Traced:
		o.Spans = nil
	case o.Spans == nil:
		o.Spans = spans.NewRecorder()
	}
	sizes := w.Sizes
	if o.Scale != 1 {
		sizes = sizes.Scaled(o.Scale)
	}
	r := &Result{
		Workload: o.Workload, Seed: o.Seed, Sizes: sizes, Traced: o.Traced,
		Metrics: make(map[string]float64),
		Layers:  make(map[string]float64),
		Counts:  make(map[string]float64),
	}
	var err error
	switch o.Workload {
	case spec.TCPMeta:
		err = runTCPMeta(o, r)
	case spec.TCPData:
		err = runTCPData(o, r)
	default:
		err = runSim(o, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	return r, nil
}

// isFault reports whether a status means the back-end failed to serve, as
// opposed to refusing a request the workload sent to be refused.
func isFault(s protocol.Status) bool {
	return s == protocol.StatusUnavailable || s == protocol.StatusOverloaded || s == protocol.StatusCancelled
}

// procSample is a point-in-time read of the process counters the process
// layer reports as deltas over the measured phase.
type procSample struct {
	at       time.Time
	mem      runtime.MemStats
	gcCPU    float64
	totalCPU float64
}

var procMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() procSample {
	var p procSample
	samples := make([]rtmetrics.Sample, len(procMetricNames))
	for i, name := range procMetricNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		p.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		p.totalCPU = samples[1].Value.Float64()
	}
	runtime.ReadMemStats(&p.mem)
	p.at = time.Now()
	return p
}

// processLayer fills the end-to-end allocation metric and the process layer
// from the samples around the measured phase.
func (r *Result) processLayer(begin, end procSample, ops uint64) {
	if ops == 0 {
		return
	}
	r.Metrics["alloc_bytes_per_op"] = float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / float64(ops)
	r.Layers["proc.allocs_per_op"] = float64(end.mem.Mallocs-begin.mem.Mallocs) / float64(ops)
	r.Layers["proc.gc_cycles"] = float64(end.mem.NumGC - begin.mem.NumGC)
	if cpu := end.totalCPU - begin.totalCPU; cpu > 0 {
		r.Layers["proc.gc_cpu_share"] = (end.gcCPU - begin.gcCPU) / cpu
	}
}

// heapPerUser measures the live heap after a forced collection. keep lists
// what must stay reachable across it: the cluster, the load generator, the
// trace collector.
func (r *Result) heapPerUser(users int, keep ...any) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Metrics["heap_bytes_per_user"] = float64(ms.HeapAlloc) / float64(users)
	r.Layers["proc.peak_rss_mb"] = float64(peakRSS()) / 1e6
	runtime.KeepAlive(keep)
}

// peakRSS reads the process's high-water resident set (VmHWM); 0 without
// procfs.
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseUint(fields[0], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
