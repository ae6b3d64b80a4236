package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"u1/benchmark/layers"
	"u1/benchmark/report"
	"u1/benchmark/spec"
	"u1/benchmark/workloads"
)

// benchmarkJSON is the driver's view of the benchmark, as BENCHMARK.json at
// the root of the repo declares it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the spec tables: the
// names, units, directions and bounds cannot drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if got := strings.Join(b.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != spec.RunSeconds || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, spec has %d", b.RunSeconds, spec.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, spec has %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	e2e := spec.DriverEndToEnd()
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("%d end_to_end metrics, spec has %d defined on every workload", len(b.EndToEnd), len(e2e))
	}
	var hasSetup bool
	for i, m := range e2e {
		name(m.Name)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d = %+v, spec has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == spec.Lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}

	layer := spec.DriverPerLayer()
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("%d per_layer metrics, spec has %d", len(b.PerLayer), len(layer))
	}
	if len(layer) > 128 {
		t.Errorf("%d per_layer metrics, the contract allows 128", len(layer))
	}
	for i, m := range layer {
		name(m.Name)
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d = %+v, spec has %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != spec.Lower && m.Better != spec.Higher) {
			t.Errorf("%s: unit %q or direction %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		for _, w := range m.Workloads {
			if _, ok := spec.WorkloadByName(w); !ok {
				t.Errorf("%s is defined on unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestREADMENamesEverything keeps the README's tables from drifting: every
// workload and metric of the spec is named there.
func TestREADMENamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range spec.Layers {
		if op, ok := strings.CutPrefix(m.Name, "apiserver.self_ns."); ok {
			names = append(names, "apiserver.self_ns.<op>", op)
			continue
		}
		names = append(names, m.Name)
	}
	for _, name := range names {
		if !strings.Contains(readme, name) {
			t.Errorf("README.md does not mention %s", name)
		}
	}
}

// inProcess runs a repetition in the test process, at the bench's scale.
func inProcess(o workloads.Options, _ string) (*workloads.Result, error) {
	return workloads.Run(o)
}

func testBench(t *testing.T) *bench {
	return &bench{
		seed: 1, scale: 0.01, scratch: t.TempDir(), rep: inProcess,
		fixtures:     layers.Config{MinTime: 200 * time.Microsecond, Rounds: 1, Dir: t.TempDir()},
		staircaseOps: 128,
	}
}

func metricNames(out *driverOut) map[string]bool {
	names := make(map[string]bool)
	for name := range out.Metrics {
		names[name] = true
	}
	return names
}

// TestEveryWorkloadAtSmallScale runs every workload at 1/100 scale through
// both driver modes: each must pass its checks and emit exactly the metric
// names BENCHMARK.json lists, the end-to-end ones all non-zero.
func TestEveryWorkloadAtSmallScale(t *testing.T) {
	declared := readBenchmarkJSON(t)
	b := testBench(t)
	var names []string
	for _, w := range declared.Workloads {
		names = append(names, w.Name)
		out, err := b.driveEndToEnd(w.Name, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, out.Correct, out.Attempted, out.Failed)
		}
		got := metricNames(out)
		for _, m := range declared.EndToEnd {
			if !got[m.Name] {
				t.Errorf("%s: end-to-end metric %s not emitted", w.Name, m.Name)
			}
			if v := out.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", w.Name, m.Name, v.Value, v.Unit, m.Unit)
			}
			delete(got, m.Name)
		}
		for extra := range got {
			t.Errorf("%s: emitted %s, which BENCHMARK.json does not list", w.Name, extra)
		}
	}

	tr, err := b.trace(names, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range tr.Workloads {
		out := tr.perLayerOut(tw)
		for _, c := range tr.failedChecks(tw) {
			// A few hundred operations on a busy test host do not pin a
			// median; TestStaircaseAgreement covers that check.
			if !strings.HasPrefix(c, "staircase-d3") {
				t.Errorf("%s traced: %s", tw.Name, c)
			}
		}
		got := metricNames(out)
		values := tr.layerValues(tw)
		for _, m := range declared.PerLayer {
			if !got[m.Name] {
				t.Errorf("%s: per-layer metric %s not emitted", tw.Name, m.Name)
			}
			delete(got, m.Name)
			delete(values, m.Name)
		}
		for extra := range got {
			t.Errorf("%s: emitted %s, which BENCHMARK.json does not list", tw.Name, extra)
		}
		// Nothing the traced run measures may be dropped on the way out,
		// except the end-to-end metrics the untraced driver mode carries.
		for name := range values {
			if m, ok := spec.EndToEndByName(name); !ok || m.Workloads != nil {
				t.Errorf("%s: measured %s, which no list in BENCHMARK.json carries", tw.Name, name)
			}
		}
		// Every end-to-end metric defined on the workload has a value.
		for _, m := range spec.EndToEnd {
			if m.DefinedOn(tw.Name) && tw.Untraced.Metrics[m.Name] <= 0 && m.Name != "failed_share" {
				t.Errorf("%s: %s = %v", tw.Name, m.Name, tw.Untraced.Metrics[m.Name])
			}
		}
	}
	for _, row := range tr.Staircase.Rows {
		for depth, n := range row.N {
			if n == 0 && row.Request != "do/Authenticate" && row.Request != "do/CloseSession" {
				t.Errorf("staircase: %s has no sample at %s", row.Request, tr.Staircase.Depths[depth])
			}
		}
	}
}

// TestPlantedFaultsFailTheirChecks shows that each correctness check can
// fail: a node dropped from the load generator's model, a flipped payload
// byte, a journal cut short before the cold reopen.
func TestPlantedFaultsFailTheirChecks(t *testing.T) {
	for _, tc := range []struct{ workload, fault, check string }{
		{spec.TCPMeta, workloads.FaultDropNode, "model-sync"},
		{spec.TCPData, workloads.FaultFlipByte, "download-sha1"},
		{spec.SimDurable, workloads.FaultTornJournal, "recovery-fingerprints"},
	} {
		r, err := workloads.Run(workloads.Options{
			Workload: tc.workload, Seed: 1, Scale: 0.01, Dir: t.TempDir(), Fault: tc.fault,
		})
		if err != nil {
			t.Fatalf("%s with %s: %v", tc.workload, tc.fault, err)
		}
		var failed []string
		for _, c := range r.Checks {
			if !c.OK {
				failed = append(failed, c.Name)
			}
		}
		if len(failed) != 1 || failed[0] != tc.check {
			t.Errorf("%s with %s: failed checks %v, want exactly %s", tc.workload, tc.fault, failed, tc.check)
		}
	}
}

// TestRepeatComparesStreamsPerSeed: two sets of one seed list must agree on
// every repetition's stream fingerprint, and `repeat` fails when they do not.
func TestRepeatComparesStreamsPerSeed(t *testing.T) {
	b := testBench(t)
	var sets [2]*report.Report
	for i := range sets {
		var err error
		if sets[i], err = b.runSet([]string{spec.SimScaleDay}, 2); err != nil {
			t.Fatal(err)
		}
	}
	fp := sets[0].Workloads[0].Fingerprints
	if len(fp) != 2 || fp[0] == fp[1] {
		t.Fatalf("fingerprints of two repetitions on two seeds = %v", fp)
	}
	// Host times at this scale swing past any bound: judge the streams alone.
	sets[1].Workloads[0].Metrics = sets[0].Workloads[0].Metrics
	if err := printRepeat(io.Discard, sets[0], sets[1]); err != nil {
		t.Errorf("two sets of the same seeds: %v", err)
	}
	sets[1].Workloads[0].Fingerprints = []string{fp[0], "0000000000000000"}
	if err := printRepeat(io.Discard, sets[0], sets[1]); err == nil {
		t.Error("repeat accepted a stream that differs between two runs of one seed")
	}
}

// TestStaircaseAgreement plants a staircase whose d3 write median is a third
// off the untraced tcp-meta run's: the traced run must fail on it.
func TestStaircaseAgreement(t *testing.T) {
	untraced := &workloads.Result{Workload: spec.TCPMeta, Metrics: map[string]float64{"read_p50_us": 45, "write_p50_us": 100}}
	tw := tracedWorkload{Name: spec.TCPMeta, Untraced: untraced, Traced: untraced}
	tr := &traceRun{Staircase: &workloads.Staircase{ReadP50Us: 46, WriteP50Us: 104}}
	if failed := tr.failedChecks(tw); len(failed) != 0 {
		t.Errorf("d3 within a few percent of the untraced run: %v", failed)
	}
	tr.Staircase.WriteP50Us = 133
	if failed := tr.failedChecks(tw); len(failed) != 1 || !strings.HasPrefix(failed[0], "staircase-d3: write_p50_us") {
		t.Errorf("d3 write p50 33%% off: failed checks %v", failed)
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := report.Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = report.Quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestVerdicts covers the four verdicts of compare.
func TestVerdicts(t *testing.T) {
	m := spec.Metric{Name: "ops_per_s", Better: spec.Higher, Bound: 0.10}
	sum := func(v ...float64) report.Summary { return report.Summarize("1/s", spec.Higher, v) }
	for _, tc := range []struct {
		a, b report.Summary
		want string
	}{
		{sum(100, 101, 102), sum(99, 100, 103), report.WithinBound},
		{sum(100, 101, 102), sum(120, 121, 122), report.Better},
		{sum(100, 101, 102), sum(80, 81, 82), report.Worse},
		{sum(60, 100, 140), sum(70, 90, 150), report.Unresolved},
		{sum(60, 100, 140), sum(300, 310, 320), report.Better}, // wide spread, but every run beats every run
	} {
		if got := report.Verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("Verdict(%v, %v) = %q, want %q", tc.a.Values, tc.b.Values, got, tc.want)
		}
	}
}
