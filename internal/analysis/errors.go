package analysis

import (
	"fmt"
	"strings"

	"u1/internal/faults"
	"u1/internal/protocol"
	"u1/internal/trace"
)

// ErrorRates is the error-rate-by-operation-class report. The provider-side
// failure literature (PAPERS.md: Characterizing User and Provider Reported
// Cloud Failures) finds that provider-visible failures cluster by operation
// class, which is exactly the granularity the API server's fault
// injection and admission control act on; this analysis closes the loop by
// measuring the per-class rates out of the collected trace.
type ErrorRates struct {
	// Classes holds one row per shedding class (data, metadata, session),
	// in that order; classes with no traffic are included with zero counts.
	Classes []ErrorClass
	// Total aggregates every class.
	Total ErrorClass
}

// ErrorClass is one class's error accounting.
type ErrorClass struct {
	Class  string
	Ops    uint64
	Errors uint64
	// ByStatus counts the non-OK outcomes by wire status.
	ByStatus map[protocol.Status]uint64
}

// Rate returns the class error rate (0 with no traffic).
func (c ErrorClass) Rate() float64 {
	if c.Ops == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Ops)
}

// AnalyzeErrors folds the trace's storage and session records into per-class
// error rates.
func AnalyzeErrors(t *Trace) ErrorRates {
	byClass := map[faults.Class]*ErrorClass{}
	for _, cl := range []faults.Class{faults.ClassData, faults.ClassMetadata, faults.ClassSession} {
		byClass[cl] = &ErrorClass{Class: cl.String(), ByStatus: make(map[protocol.Status]uint64)}
	}
	total := ErrorClass{Class: "total", ByStatus: make(map[protocol.Status]uint64)}
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != trace.KindStorage && r.Kind != trace.KindSession {
			continue
		}
		c := byClass[faults.ClassOf(protocol.Op(r.Op))]
		c.Ops++
		total.Ops++
		if st := protocol.Status(r.Status); st != protocol.StatusOK {
			c.Errors++
			c.ByStatus[st]++
			total.Errors++
			total.ByStatus[st]++
		}
	}
	res := ErrorRates{Total: total}
	for _, cl := range []faults.Class{faults.ClassData, faults.ClassMetadata, faults.ClassSession} {
		res.Classes = append(res.Classes, *byClass[cl])
	}
	return res
}

// Render produces one paper-vs-measured line per class. The literature gives
// no rate to compare with, only that failures cluster by class, so these
// lines are not targets.
func (e ErrorRates) Render() string {
	var b strings.Builder
	b.WriteString("§5.4: error rates by operation class\n")
	for _, c := range e.Classes {
		b.WriteString(line("§5.4", c.Class+"-class error rate", "clusters by op class",
			fmt.Sprintf("%.2f%% (%d/%d)", 100*c.Rate(), c.Errors, c.Ops)))
	}
	return b.String()
}
