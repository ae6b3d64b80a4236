package analysis

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"u1/internal/trace"
)

// TestFindings runs every entry of Figures and checks Table 1 is a view of
// them: each class-marked target appears once, and the attack count is the
// one Fig. 5 finds on the raw trace, not on the sanitized one.
func TestFindings(t *testing.T) {
	raw := testTrace(t)
	clean := raw.Sanitize()
	var results []Result
	for i := range Figures {
		results = append(results, Figures[i].Run(raw, clean))
	}
	table := Table1(results)
	var marked int
	for _, r := range results {
		rows := strings.SplitAfter(r.Rows(), "\n")
		for i, tg := range r.Targets {
			if tg.Class == 0 {
				continue
			}
			marked++
			finding := fmt.Sprintf("%-46s", fmt.Sprintf("[%c] %s", tg.Class, tg.Name))
			if want := strings.Replace(rows[i], fmt.Sprintf("%-46s", tg.Name), finding, 1); strings.Count(table, want) != 1 {
				t.Errorf("Table 1 lacks %q:\n%s", want, table)
			}
		}
	}
	if rows := strings.Count(table, "\n") - 1; rows != marked || marked < 9 {
		t.Errorf("Table 1 has %d rows for %d marked targets", rows, marked)
	}
	windows := fmt.Sprintf(" %d\n", len(AnalyzeDDoS(raw).Attacks))
	for _, l := range strings.SplitAfter(table, "\n") {
		if strings.Contains(l, "[N] attacks detected") && !strings.HasSuffix(l, windows) {
			t.Errorf("Table 1 row %q, want Fig. 5's count%q", l, windows)
		}
	}
}

// TestFiguresWithoutRPC analyzes records read back without RPC spans, as
// from a trace tree written without -rpc: the entries that need the RPC
// aggregate say how to get it and measure n/a, not 0.
func TestFiguresWithoutRPC(t *testing.T) {
	tr := testTrace(t)
	view := FromDataset(&trace.Dataset{Records: tr.Records, Servers: tr.Servers, Extensions: tr.Extensions},
		tr.Start, tr.Days, 10)
	if view.RPC != nil {
		t.Fatal("FromDataset built an RPC aggregate from no RPC records")
	}
	var needing int
	for i := range Figures {
		f := &Figures[i]
		if !f.NeedsRPC {
			continue
		}
		needing++
		r := f.Run(view, view)
		if out := r.Render(); !strings.Contains(out, "u1 sim -out DIR -rpc") {
			t.Errorf("%v renders %q, want the -rpc hint", f.IDs, out)
		}
		for j, m := range r.Measured {
			if !math.IsNaN(m) {
				t.Errorf("%v measured %s = %v without RPC records", f.IDs, f.Targets[j].Name, m)
			}
		}
		if rows := r.Rows(); strings.Count(rows, " n/a\n") != len(f.Targets) {
			t.Errorf("%v rows:\n%s\nwant n/a on each", f.IDs, rows)
		}
	}
	if needing < 2 {
		t.Errorf("%d entries need the RPC aggregate, want Figs. 12-14's", needing)
	}
}
