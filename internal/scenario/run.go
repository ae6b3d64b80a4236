package scenario

import (
	"fmt"
	"os"
	"sync"
	"time"

	"u1/internal/apiserver"
	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/workload"
)

// Outcome is one scenario's full verdict: the mitigated leg, the optional
// unmitigated baseline leg, and the invariant result.
type Outcome struct {
	Spec     *Spec
	Params   Params
	Result   *Result
	Baseline *Result
	// Violation is empty when the invariant held, else its description.
	Violation string
}

// runMu serializes scenario runs process-wide: the runner rewinds the global
// session-id allocator before each leg (see apiserver.ResetSessionIDs), which
// is only sound with no other scenario traffic in flight.
var runMu sync.Mutex

// RunSpec executes one catalog entry at the given params (zero fields fall
// back to the spec's then the package defaults). logf narrates progress and
// may be nil. The returned error is infrastructural (cluster boot, durable
// dir); invariant violations land in Outcome.Violation instead.
func RunSpec(spec *Spec, p Params, logf func(string, ...any)) (*Outcome, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p = spec.effective(p)
	runMu.Lock()
	defer runMu.Unlock()

	res, err := runSetup(spec.Build(p), p, logf)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	out := &Outcome{Spec: spec, Params: p, Result: res}
	if spec.Baseline != nil {
		logf("scenario %s: running unmitigated baseline leg", spec.Name)
		out.Baseline, err = runSetup(spec.Baseline(p), p, logf)
		if err != nil {
			return nil, fmt.Errorf("scenario %s baseline: %w", spec.Name, err)
		}
	}
	if spec.Check != nil {
		if verr := spec.Check(out.Result, out.Baseline); verr != nil {
			out.Violation = verr.Error()
		}
	}
	return out, nil
}

// runSetup executes one composed leg: boot the cluster (durable legs get a
// fresh temp dir), drive the workload, run the drill on the final state, and
// snapshot everything into a Result.
func runSetup(s Setup, p Params, logf func(string, ...any)) (*Result, error) {
	cfg := s.Cluster
	if s.Durable {
		dir, err := os.MkdirTemp("", "u1-chaos-")
		if err != nil {
			return nil, fmt.Errorf("creating durable dir: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.Durability = dir
	}

	// Rewind the global session-id allocator so process placement — and with
	// it every per-process decision — is a function of the scenario alone,
	// not of how many runs this process already did.
	apiserver.ResetSessionIDs()

	cluster, err := server.OpenCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening cluster: %w", err)
	}
	totals := workload.New(s.Workload, cluster).Run()

	res := &Result{Params: p, Totals: totals}
	if s.Drill != nil {
		d := &Drill{
			Cluster: cluster,
			Params:  p,
			Now:     s.Workload.Start.Add(time.Duration(p.Days) * 24 * time.Hour),
			Logf:    logf,
		}
		res.DrillErr = s.Drill(d)
	}
	res.Auth = cluster.Auth.Stats()
	res.Snapshot = cluster.Metrics.Snapshot()
	if s.Durable {
		if err := cluster.Close(); err != nil {
			return nil, fmt.Errorf("closing durable cluster: %w", err)
		}
	}
	return res, nil
}

// Stats folds the outcome into its chaos-report entry.
func (o *Outcome) Stats() Stats {
	st := statsOf(o.Result)
	st.Description = o.Spec.Description
	st.Invariant = "pass"
	if o.Violation != "" {
		st.Invariant = o.Violation
	}
	if o.Baseline != nil {
		base := statsOf(o.Baseline)
		base.Description = "unmitigated baseline"
		st.Baseline = &base
	}
	return st
}

// statsOf derives one leg's Stats from its Result. Only deterministic
// quantities are published: counter-derived totals and error rates always,
// latency percentiles only for serial legs (sampled RPC durations are not
// reproducible under a parallel driver), and never a wall-clock rate.
func statsOf(r *Result) Stats {
	opStats := metrics.OpStatsOf(r.Snapshot, 0)
	st := Stats{
		Users:   r.Params.Users,
		Days:    r.Params.Days,
		Seed:    r.Params.Seed,
		Workers: r.Params.Workers,

		Sessions:    r.Totals.Sessions,
		FailedAuths: r.Totals.FailedAuths,

		Injected:       r.Snapshot.Counter(metrics.FaultsInjected),
		Shed:           r.Snapshot.Counter(metrics.FaultsShed),
		SSOShed:        r.Snapshot.Counter(metrics.FaultsSSOShed),
		Retried:        r.Snapshot.Counter(metrics.FaultsRetried),
		RetrySucceeded: r.Snapshot.Counter(metrics.FaultsRetrySucceeded),
		AuthOverloaded: r.Auth.Overloaded,

		ErrorRates:   make(map[string]ClassStats, 3),
		WALJournaled: r.Snapshot.Counter(metrics.WALJournaled),
		Replication:  replicationOf(r.Snapshot),
	}
	for _, op := range opStats {
		st.TotalOps += op.Count
	}
	for _, class := range []faults.Class{faults.ClassData, faults.ClassMetadata, faults.ClassSession} {
		ops, errs := r.ClassErrors(class)
		ce := ClassStats{Ops: ops, Errors: errs}
		if ops > 0 {
			ce.Rate = float64(errs) / float64(ops)
		}
		st.ErrorRates[class.String()] = ce
		st.TotalErrors += errs
	}
	if r.Params.Workers == 1 {
		st.Ops = opStats
	}
	return st
}

// RunMatrix executes a matrix in order and returns the
// per-scenario stats keyed by catalog name, plus the list of invariant
// violations ("name: description"). Infrastructure failures abort the matrix.
func RunMatrix(m Matrix, logf func(string, ...any)) (map[string]Stats, []string, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := make(map[string]Stats, len(m.Scenarios))
	var violations []string
	for _, name := range m.Scenarios {
		spec, err := Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := out[spec.Name]; dup {
			return nil, nil, fmt.Errorf("scenario: %q appears twice in the matrix", spec.Name)
		}
		p := m.params(spec)
		logf("scenario %s: users=%d days=%d seed=%d workers=%d",
			spec.Name, p.Users, p.Days, p.Seed, p.Workers)
		o, err := RunSpec(spec, p, logf)
		if err != nil {
			return nil, nil, err
		}
		if o.Violation != "" {
			violations = append(violations, spec.Name+": "+o.Violation)
			logf("scenario %s: INVARIANT VIOLATED: %s", spec.Name, o.Violation)
		} else {
			logf("scenario %s: pass", spec.Name)
		}
		out[spec.Name] = o.Stats()
	}
	return out, violations, nil
}
