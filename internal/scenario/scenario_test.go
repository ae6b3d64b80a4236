package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// statsJSON runs one catalog entry and returns its marshaled scenario report.
// The JSON form is the reproducibility contract: it is what `u1 chaos` emits and
// what two identically configured runs must reproduce byte-for-byte.
func statsJSON(t *testing.T, spec *Spec, p Params) string {
	t.Helper()
	out, err := RunSpec(spec, p, nil)
	if err != nil {
		t.Fatalf("running %s: %v", spec.Name, err)
	}
	if out.Violation != "" {
		t.Fatalf("%s invariant violated: %s", spec.Name, out.Violation)
	}
	data, err := json.Marshal(out.Stats())
	if err != nil {
		t.Fatalf("marshaling %s stats: %v", spec.Name, err)
	}
	return string(data)
}

// smokeParams mirrors the `u1 chaos -smoke` clamps so the suite runs at CI
// scale.
func smokeParams(spec *Spec, workers int) Params {
	p := spec.effective(Params{Workers: workers})
	if p.Users > 160 {
		p.Users = 160
	}
	if p.Days > 2 {
		p.Days = 2
	}
	return p
}

// TestScenarioDeterminism pins the catalog's reproducibility contract: the
// same (seed, workers, scenario config) twice in one process yields identical
// scenario reports — totals, fault counters, error rates and (serial legs)
// latency percentiles — with every invariant passing.
func TestScenarioDeterminism(t *testing.T) {
	for _, spec := range Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			p := smokeParams(spec, 1)
			first := statsJSON(t, spec, p)
			second := statsJSON(t, spec, p)
			if first != second {
				t.Errorf("Workers=1 reports diverged:\n  first:  %s\n  second: %s", first, second)
			}
		})
	}
}

// TestScenarioDeterminismParallel pins count-determinism under the parallel
// driver for the scenarios whose decisions are pure functions of (seed, op,
// user, time). Live scenarios (admission on shared state) are exempt by
// contract: their shedding depends on request interleaving, which only the
// serial driver fixes.
func TestScenarioDeterminismParallel(t *testing.T) {
	for _, spec := range Catalog() {
		if spec.Live {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			p := smokeParams(spec, 4)
			first := statsJSON(t, spec, p)
			second := statsJSON(t, spec, p)
			if first != second {
				t.Errorf("Workers=4 reports diverged:\n  first:  %s\n  second: %s", first, second)
			}
		})
	}
}

// TestScenarioReportShape pins what a report may publish at each worker
// count: latency percentiles only under the serial driver, and never a
// wall-clock throughput figure.
func TestScenarioReportShape(t *testing.T) {
	spec, err := Lookup("thundering-herd")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunSpec(spec, smokeParams(spec, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := serial.Stats(); len(st.Ops) == 0 {
		t.Error("serial report omitted per-op latencies")
	}
	parallel, err := RunSpec(spec, smokeParams(spec, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := parallel.Stats(); st.Ops != nil {
		t.Errorf("parallel report published per-op latencies: %v", st.Ops)
	}
}

// TestWriteReportRoundTrip pins the chaos report's envelope: the u1-chaos/1
// schema tag and the per-scenario stats, keyed by catalog name, decoding back
// to what was written.
func TestWriteReportRoundTrip(t *testing.T) {
	in := map[string]Stats{
		"sso-storm": {
			Users: 160, Days: 2, Seed: 7, Workers: 1, TotalOps: 1000, SSOShed: 40,
			ErrorRates:  map[string]ClassStats{"session": {Ops: 200, Errors: 10, Rate: 0.05}},
			Replication: &ReplicationStats{Published: 3, Applied: 3},
			Invariant:   "pass",
			Baseline:    &Stats{Description: "unmitigated baseline", TotalOps: 900},
		},
	}
	path := filepath.Join(t.TempDir(), "chaos-report.json")
	if err := WriteReport(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schema    string           `json:"schema"`
		Scenarios map[string]Stats `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != "u1-chaos/1" {
		t.Errorf("schema = %q, want u1-chaos/1", got.Schema)
	}
	if !reflect.DeepEqual(got.Scenarios, in) {
		t.Errorf("round trip mismatch:\n  in:  %+v\n  out: %+v", in, got.Scenarios)
	}
}

func TestLookupUnknownName(t *testing.T) {
	_, err := Lookup("no-such-scenario")
	if err == nil {
		t.Fatal("unknown scenario name did not error")
	}
	// The error must be self-diagnosing: it lists the catalog.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list catalog entry %q", err, name)
		}
	}
}

// TestParamResolution pins the precedence chain: matrix (the flags) → spec
// default → package default, then the smoke clamps.
func TestParamResolution(t *testing.T) {
	spec, err := Lookup("flash-crowd") // Defaults{Users: 400, Days: 3, Seed: 11}
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Users: 50, Days: 9}
	want := Params{Users: 50, Days: 9, Seed: 11, Workers: 1}
	if p := m.params(spec); p != want {
		t.Errorf("resolved params = %+v, want %+v", p, want)
	}
	m.MaxUsers, m.MaxDays = 30, 2
	if p := m.params(spec); p.Users != 30 || p.Days != 2 {
		t.Errorf("smoke clamps not applied: %+v", p)
	}
}

// TestCatalogComplete pins the catalog floor the chaos runner ships with and
// that every entry is runnable: a Build function and an invariant Check.
func TestCatalogComplete(t *testing.T) {
	if n := len(Catalog()); n < 6 {
		t.Fatalf("catalog has %d entries, want >= 6", n)
	}
	for _, spec := range Catalog() {
		if spec.Build == nil {
			t.Errorf("%s has no Build", spec.Name)
		}
		if spec.Check == nil {
			t.Errorf("%s has no invariant Check", spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("%s has no description", spec.Name)
		}
	}
}
