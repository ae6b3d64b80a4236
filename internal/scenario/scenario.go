// Package scenario is the chaos catalog: named, composable operational
// scenarios — the §5.4 SSO login storm, regional outage and failover,
// metadata shard crash and journal recovery, slow-disk degradation,
// post-outage thundering herds, flash crowds — built from the repo's
// existing primitives (fault-plan phases, admission watermarks, the SSO
// token bucket, durable-tier and region drills, attack overlays, client
// retry policies). Each catalog entry's Setup is a pure function of its
// Params, so a fixed (Seed, Workers, config) reproduces the same scenario
// report; `u1 chaos` runs a config-driven matrix of entries and writes the
// per-scenario reports as one u1-chaos/1 report (WriteReport).
//
// # Determinism contract
//
// Scenario reports inherit the repo-wide contract. At Workers=1 the serial
// driver makes everything in a report — totals, fault counters, error rates,
// latency percentiles — a deterministic function of (Seed, config); the
// runner rewinds the process-global session-id allocator before every run so
// back-to-back runs in one process cannot diverge through process placement.
// At Workers>1, counts stay deterministic but sampled RPC durations do not,
// so the runner omits the per-op latency section; scenarios marked Live
// (admission watermarks, the SSO bucket — decisions on live shared state)
// are only reproducible under the serial driver at all, matching the
// admission contract, and the determinism suite pins them at Workers=1 only.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"u1/internal/auth"
	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/server"
	"u1/internal/workload"
)

// Params is the workload scale one scenario run executes at. Zero fields are
// filled from the spec's defaults, then the package-wide defaults
// (DefaultParams).
type Params struct {
	Users   int
	Days    int
	Workers int
	Seed    int64
}

// DefaultParams is the final fallback scale: small enough for CI smoke runs,
// big enough that every catalog entry's machinery engages.
var DefaultParams = Params{Users: 150, Days: 2, Workers: 1, Seed: 7}

// fill replaces p's zero fields from d.
func (p Params) fill(d Params) Params {
	if p.Users <= 0 {
		p.Users = d.Users
	}
	if p.Days <= 0 {
		p.Days = d.Days
	}
	if p.Workers <= 0 {
		p.Workers = d.Workers
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Setup is one fully composed scenario leg: the cluster configuration, the
// workload that drives it, and an optional post-workload drill. Build
// functions return it as a pure function of Params.
type Setup struct {
	Cluster  server.Config
	Workload workload.Config
	// Durable roots the cluster's metadata store in a fresh temporary
	// directory for the run (removed afterwards); Cluster.Durability is
	// filled by the runner.
	Durable bool
	// Drill, when non-nil, runs after the workload completes and before the
	// metrics snapshot, so drill activity lands in the scenario report. A
	// returned error is the scenario's invariant violation, not an
	// infrastructure failure.
	Drill DrillFunc
}

// DrillFunc is a post-workload drill body.
type DrillFunc func(*Drill) error

// Drill is the context a DrillFunc operates in.
type Drill struct {
	Cluster *server.Cluster
	Params  Params
	// Now is the first virtual instant after the trace window — drills act
	// after the workload, on its final state.
	Now time.Time
	// Logf narrates drill progress; never nil (defaults to a discard).
	Logf func(format string, args ...any)
}

// Result is one scenario leg's outcome: the workload totals, the auth
// service's counters, the full metrics snapshot, and the drill's verdict.
type Result struct {
	Params   Params
	Totals   workload.Totals
	Auth     auth.Counters
	Snapshot metrics.Snapshot
	DrillErr error
}

// ClassErrors folds the per-op outcome counters into one shedding class's
// totals. Counter-derived (not trace-derived), so it is deterministic at any
// worker count.
func (r *Result) ClassErrors(class faults.Class) (ops, errs uint64) {
	for _, op := range protocol.Ops() {
		if faults.ClassOf(op) != class {
			continue
		}
		series := metrics.APIOp(op.String())
		ops += r.Snapshot.Counter(series.Count)
		errs += r.Snapshot.Counter(series.Errors)
	}
	return ops, errs
}

// ClassErrorRate is ClassErrors as a fraction (0 when the class saw no ops).
func (r *Result) ClassErrorRate(class faults.Class) float64 {
	ops, errs := r.ClassErrors(class)
	if ops == 0 {
		return 0
	}
	return float64(errs) / float64(ops)
}

// OpP50Ms reads one op's median latency in milliseconds from the snapshot
// (serial-run invariants only; parallel-driver latencies are not
// reproducible).
func (r *Result) OpP50Ms(op protocol.Op) float64 {
	return r.Snapshot.Histogram(metrics.APIOp(op.String()).Seconds).P50 * 1e3
}

// Spec is one named catalog entry.
type Spec struct {
	// Name is the catalog key (kebab-case, stable across releases: configs
	// and CI reference it).
	Name string
	// Description is one line for reports and -list output.
	Description string
	// Live marks scenarios whose shedding decisions depend on live shared
	// state (admission windows, the SSO bucket): deterministic only under
	// the serial driver, per the admission contract. The determinism suite
	// pins Live scenarios at Workers=1 only.
	Live bool
	// Defaults overrides DefaultParams fields for this entry (zero fields
	// defer).
	Defaults Params
	// Build composes the scenario leg from the resolved params.
	Build func(Params) Setup
	// Baseline, when non-nil, composes the unmitigated comparison leg (same
	// storm, mitigation off) the Check may compare against.
	Baseline func(Params) Setup
	// Check evaluates the scenario's invariant; base is nil when the spec
	// has no Baseline. A returned error is the violation published in the
	// report (and a non-zero `u1 chaos` exit), not an infrastructure failure.
	Check func(res, base *Result) error
}

// effective resolves run params against the spec's and package defaults.
func (s *Spec) effective(p Params) Params {
	return p.fill(s.Defaults).fill(DefaultParams)
}

// catalog is the registry, in presentation order. Entries register in
// catalog.go; the order is stable so reports and -list output don't shuffle.
var catalog []*Spec

// register adds a spec at package init; duplicate names are a programming
// error.
func register(s *Spec) {
	for _, have := range catalog {
		if have.Name == s.Name {
			panic(fmt.Sprintf("scenario: duplicate catalog entry %q", s.Name))
		}
	}
	catalog = append(catalog, s)
}

// Catalog returns every registered spec in stable order.
func Catalog() []*Spec { return append([]*Spec(nil), catalog...) }

// Names returns the catalog's entry names, sorted.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for _, s := range catalog {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a catalog name. Unknown names error with the full catalog
// listed, so a config typo is self-diagnosing.
func Lookup(name string) (*Spec, error) {
	for _, s := range catalog {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (catalog: %v)", name, Names())
}

// baseCluster is the shared cluster configuration every entry starts from:
// paper-calibrated auth failure injection, everything else default.
func baseCluster(p Params) server.Config {
	return server.Config{Seed: p.Seed, AuthFailureRate: auth.PaperFailureRate}
}

// baseWorkload is the shared workload every entry starts from: the resolved
// scale, the paper's start instant, and no attacks unless the entry adds
// them.
func baseWorkload(p Params) workload.Config {
	return workload.Config{
		Users:   p.Users,
		Days:    p.Days,
		Seed:    p.Seed,
		Workers: p.Workers,
		Start:   workload.PaperStart,
		Attacks: []workload.Attack{},
	}
}

// at converts a (day, hour) trace offset into the virtual instant, for
// phase windows and drills.
func at(day int, hour float64) time.Time {
	return workload.PaperStart.Add(time.Duration(day)*24*time.Hour +
		time.Duration(hour*float64(time.Hour)))
}
