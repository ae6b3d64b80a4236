package analysis

import (
	"testing"

	"u1/internal/protocol"
	"u1/internal/trace"
)

// rec builds one synthetic trace record.
func rec(kind trace.Kind, op protocol.Op, status protocol.Status) trace.Record {
	return trace.Record{Kind: kind, Op: uint8(op), Status: uint8(status)}
}

func TestAnalyzeErrorsClassesAndRates(t *testing.T) {
	tr := &Trace{Records: []trace.Record{
		// 4 data ops, 2 failed (one injected outage, one shed).
		rec(trace.KindStorage, protocol.OpGetContent, protocol.StatusOK),
		rec(trace.KindStorage, protocol.OpPutContent, protocol.StatusOK),
		rec(trace.KindStorage, protocol.OpGetContent, protocol.StatusUnavailable),
		rec(trace.KindStorage, protocol.OpPutContent, protocol.StatusOverloaded),
		// 2 metadata ops, 1 failed.
		rec(trace.KindStorage, protocol.OpUnlink, protocol.StatusNotFound),
		rec(trace.KindStorage, protocol.OpMakeDir, protocol.StatusOK),
		// 2 session ops, 1 failed auth.
		rec(trace.KindSession, protocol.OpAuthenticate, protocol.StatusOK),
		rec(trace.KindSession, protocol.OpAuthenticate, protocol.StatusAuthFailed),
		// RPC records are out of scope for the API-level report.
		rec(trace.KindRPC, protocol.OpGetContent, protocol.StatusUnavailable),
	}}
	e := AnalyzeErrors(tr)
	if len(e.Classes) != 3 {
		t.Fatalf("classes = %d", len(e.Classes))
	}
	byName := map[string]ErrorClass{}
	for _, c := range e.Classes {
		byName[c.Class] = c
	}
	if c := byName["data"]; c.Ops != 4 || c.Errors != 2 || c.Rate() != 0.5 {
		t.Errorf("data class = %+v", c)
	}
	if c := byName["data"]; c.ByStatus[protocol.StatusOverloaded] != 1 || c.ByStatus[protocol.StatusUnavailable] != 1 {
		t.Errorf("data by-status = %v", c.ByStatus)
	}
	if c := byName["metadata"]; c.Ops != 2 || c.Errors != 1 {
		t.Errorf("metadata class = %+v", c)
	}
	if c := byName["session"]; c.Ops != 2 || c.ByStatus[protocol.StatusAuthFailed] != 1 {
		t.Errorf("session class = %+v", c)
	}
	if e.Total.Ops != 8 || e.Total.Errors != 4 {
		t.Errorf("total = %+v", e.Total)
	}
}

// TestAnalyzeErrorsOnGeneratedTrace ties the report to the shared trace: the
// SSO failure injection (2.76%) must surface as session-class errors, and a
// failure-free data path keeps its error rate near zero.
func TestAnalyzeErrorsOnGeneratedTrace(t *testing.T) {
	e := AnalyzeErrors(testTrace(t))
	byName := map[string]ErrorClass{}
	for _, c := range e.Classes {
		byName[c.Class] = c
	}
	if c := byName["session"]; c.Errors == 0 {
		t.Error("SSO failure injection left no session-class errors")
	}
	if c := byName["data"]; c.Rate() > 0.05 {
		t.Errorf("data-class error rate %.3f without a fault plan", c.Rate())
	}
	if e.Total.Ops == 0 {
		t.Error("no ops counted")
	}
}
