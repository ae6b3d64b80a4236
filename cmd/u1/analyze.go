package main

import (
	"fmt"
	"io"
	"slices"

	"u1/internal/analysis"
	"u1/internal/trace"
	"u1/internal/workload"
)

// runAnalyze is `u1 analyze`: it reads logfiles written by `u1 sim -out`
// (-trace DIR) or runs the simulation in memory, then prints the requested
// figures and tables.
func runAnalyze(args []string, stdout io.Writer) error {
	fs := newFlagSet("analyze")
	cf, pf := addClusterFlags(fs), addPopulationFlags(fs)
	traceDir := fs.String("trace", "", "read logfiles from this directory instead of generating")
	all := fs.Bool("all", false, "print every figure and table")
	want := make(map[string]bool)
	fs.Func("fig", "figure to print (2a 2b 2c 3a 3b 3c 4a 4b 4c 5 6 7a 7b 7c 8 9 10 11 12 13 14 15 16 whatif); repeatable",
		func(id string) error { want["fig "+id] = true; return nil })
	fs.Func("table", "table to print (1 3); repeatable", func(id string) error { want["table "+id] = true; return nil })
	if err := fs.Parse(args); err != nil {
		return err
	}

	var t *analysis.Trace
	var s *simulation
	if *traceDir != "" {
		ds, err := trace.ReadCSV(*traceDir)
		if err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
		fmt.Fprintf(stdout, "read %d records (%d unparseable lines skipped)\n", len(ds.Records), ds.BadLines)
		t = analysis.FromDataset(ds, workload.PaperStart, pf.days, 10)
	} else {
		var err error
		if s, err = newSimulation(cf, pf, true, false); err != nil {
			return err
		}
		s.run()
		t = analysis.FromCollector(s.col, workload.PaperStart, pf.days)
	}
	clean := t.Sanitize()

	// Service-wide analyses run on the raw trace; user-behavior analyses on
	// the sanitized one (§4.1 artifact removal).
	for _, a := range []struct {
		keys   []string // the -fig/-table selections that print it
		render func() string
	}{
		{[]string{"table 3"}, func() string { return analysis.AnalyzeSummary(clean).Render() }},
		{[]string{"fig 2a", "fig 2b"}, func() string { return analysis.AnalyzeTraffic(t).Render() }},
		{[]string{"fig 2c"}, func() string { return analysis.AnalyzeRWRatio(t).Render() }},
		{[]string{"fig 3a", "fig 3b"}, func() string { return analysis.AnalyzeDependencies(clean).Render() }},
		{[]string{"fig 3c"}, func() string { return analysis.AnalyzeLifetime(clean).Render() }},
		{[]string{"fig 4a"}, func() string { return analysis.AnalyzeDedup(clean).Render() }},
		{[]string{"fig 4b"}, func() string { return analysis.AnalyzeSizes(clean).Render() }},
		{[]string{"fig 4c"}, func() string { return analysis.AnalyzeTypes(clean).Render() }},
		{[]string{"fig 5"}, func() string { return analysis.AnalyzeDDoS(t).Render() }},
		{[]string{"fig 6"}, func() string { return analysis.AnalyzeOnlineActive(clean).Render() }},
		{[]string{"fig 7a"}, func() string { return analysis.AnalyzeOpFrequency(clean).Render() }},
		{[]string{"fig 7b", "fig 7c"}, func() string { return analysis.AnalyzeUserTraffic(clean).Render() }},
		{[]string{"fig 8"}, func() string { return analysis.AnalyzeTransitions(clean).Render() }},
		{[]string{"fig 9"}, func() string { return analysis.AnalyzeBurstiness(clean).Render() }},
		{[]string{"fig 10", "fig 11"}, func() string { return analysis.AnalyzeVolumes(clean).Render() }},
		{[]string{"fig 12", "fig 13"}, func() string { return analysis.AnalyzeRPCPerf(t).Render() }},
		{[]string{"fig 14"}, func() string { return analysis.AnalyzeLoadBalance(t).Render() }},
		{[]string{"fig 15", "fig 16"}, func() string { return analysis.AnalyzeSessions(clean).Render() }},
		{[]string{"table 1"}, func() string { return analysis.AnalyzeFindings(clean).Render() }},
		{[]string{"fig whatif"}, func() string { return analysis.AnalyzeWhatIf(clean).Render() }},
	} {
		if *all || slices.ContainsFunc(a.keys, func(k string) bool { return want[k] }) {
			fmt.Fprintln(stdout, a.render())
		}
	}
	if s != nil {
		return s.cluster.Close()
	}
	return nil
}
