package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"u1/benchmark/spec"
)

// Schema identifies the report format.
const Schema = "u1-benchmark/1"

// Report is what `benchmark run` writes: every end-to-end metric of every
// workload as order statistics over the repetitions, with the env block and
// the correctness verdicts.
type Report struct {
	Schema    string     `json:"schema"`
	Env       Env        `json:"env"`
	Workloads []Workload `json:"workloads"`
}

// Workload is one workload's section of a report.
type Workload struct {
	Name  string     `json:"name"`
	Sizes spec.Sizes `json:"sizes"`
	Reps  int        `json:"reps"`
	// Fingerprints holds the sim stream fingerprint of each repetition, in
	// the order of the run's seed list (none on tcp-*). Two runs of one seed
	// list must agree on every one of them.
	Fingerprints []string `json:"stream_fingerprints,omitempty"`
	Attempted    uint64   `json:"attempted"`
	Failed       uint64   `json:"failed"`
	Refused      uint64   `json:"refused"`
	Correct      bool     `json:"correct"`
	// FailedChecks lists every failed check as "rep N: name: detail".
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Metrics are the end-to-end metrics defined on the workload; Layers the
	// per-layer counts the same repetitions yield.
	Metrics map[string]Summary `json:"metrics"`
	Layers  map[string]Summary `json:"layers,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
}

// Write writes the report as indented JSON.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a report and checks its schema.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Print writes every end-to-end metric by name with unit, median, min/max
// and sample count, then the verdict of the correctness checks.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintln(w, r.Env)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  sizes=%+v reps=%d", wl.Name, wl.Sizes, wl.Reps)
		if len(wl.Fingerprints) > 0 {
			fmt.Fprintf(w, " stream_fingerprint=%s", strings.Join(wl.Fingerprints, ","))
		}
		fmt.Fprintf(w, "\n%-22s %-6s %14s %14s %14s %8s %3s\n", "metric", "unit", "median", "min", "max", "spread", "n")
		for _, m := range spec.EndToEnd {
			s, ok := wl.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-22s %-6s %14.6g %14.6g %14.6g %7.2f%% %3d", m.Name, s.Unit, s.Median, s.Min, s.Max, 100*s.Spread(), s.N)
			if n := wl.Samples[m.Name]; n > 0 {
				fmt.Fprintf(w, "  (%d samples per rep)", n)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "requests: %d attempted, %d failed, %d refused on purpose\n", wl.Attempted, wl.Failed, wl.Refused)
		if wl.Correct {
			fmt.Fprintln(w, "checks: all passed")
		} else {
			for _, c := range wl.FailedChecks {
				fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
			}
		}
	}
}

// PrintLayers writes a name → value table sorted by name, with units from
// the spec.
func PrintLayers(w io.Writer, values map[string]float64) {
	units := make(map[string]spec.LayerMetric)
	for _, m := range spec.DriverPerLayer() {
		units[m.Name] = m
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := units[name]
		fmt.Fprintf(w, "  %-36s %-6s %-2s %14.6g\n", name, m.Unit, m.Source, values[name])
	}
}
