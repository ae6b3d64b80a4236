package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"u1/internal/analysis"
	"u1/internal/trace"
	"u1/internal/workload"
)

// runAnalyze is `u1 analyze`: it reads logfiles written by `u1 sim -out`
// (-trace DIR) or runs the simulation in memory, then prints the requested
// entries of analysis.Figures, each with its paper-vs-measured rows, and
// Table 1.
func runAnalyze(args []string, stdout io.Writer) error {
	fs := newFlagSet("analyze")
	cf, pf := addClusterFlags(fs), addPopulationFlags(fs)
	traceDir := fs.String("trace", "", "read logfiles from this directory instead of generating")
	all := fs.Bool("all", false, "print every figure and table")
	// The selectors are the Figures' ids, and Table 1, a view of them all.
	selectors := map[string][]string{"table": {"1"}}
	for _, f := range analysis.Figures {
		for _, id := range f.IDs {
			kind, n, _ := strings.Cut(id, " ")
			selectors[kind] = append(selectors[kind], n)
		}
	}
	want := make(map[string]bool)
	for _, kind := range []string{"fig", "table"} {
		ids := selectors[kind]
		list := strings.Join(ids, " ")
		fs.Func(kind, fmt.Sprintf("%s to print (%s); repeatable", kind, list), func(id string) error {
			if !slices.Contains(ids, id) {
				return fmt.Errorf("unknown %s %q, want one of: %s", kind, id, list)
			}
			want[kind+" "+id] = true
			return nil
		})
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var raw *analysis.Trace
	var s *simulation
	if *traceDir != "" {
		if pf.days <= 0 {
			return fmt.Errorf("-days %d: must be positive", pf.days)
		}
		ds, err := trace.ReadCSV(*traceDir)
		if err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
		fmt.Fprintf(stdout, "read %d records (%d unparseable lines skipped)\n", len(ds.Records), ds.BadLines)
		raw = analysis.FromDataset(ds, workload.PaperStart, pf.days, 10)
	} else {
		var err error
		if s, err = newSimulation(cf, pf, true, false); err != nil {
			return err
		}
		s.run()
		raw = analysis.FromCollector(s.col, workload.PaperStart, pf.days)
	}
	clean := raw.Sanitize()

	// Table 1 is a view of the other entries' results, so it needs them all.
	table1 := *all || want["table 1"]
	var results []analysis.Result
	for i := range analysis.Figures {
		f := &analysis.Figures[i]
		shown := *all || slices.ContainsFunc(f.IDs, func(id string) bool { return want[id] })
		if !shown && !table1 {
			continue
		}
		r := f.Run(raw, clean)
		results = append(results, r)
		if shown {
			fmt.Fprintln(stdout, r.Render()+r.Rows())
		}
	}
	if table1 {
		fmt.Fprintln(stdout, analysis.Table1(results))
	}
	if s != nil {
		return s.cluster.Close()
	}
	return nil
}
