package faults

import (
	"testing"
	"time"

	"u1/internal/protocol"
)

var t0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

func TestDecideIsPureFunction(t *testing.T) {
	a := &Plan{Seed: 42, Rules: map[protocol.Op]Rule{protocol.OpGetContent: {Fraction: 0.3}}}
	b := &Plan{Seed: 42, Rules: map[protocol.Op]Rule{protocol.OpGetContent: {Fraction: 0.3}}}
	for i := 0; i < 500; i++ {
		user := protocol.UserID(i % 17)
		now := t0.Add(time.Duration(i) * 311 * time.Millisecond)
		sa, oka := a.Decide(user, protocol.OpGetContent, now)
		sb, okb := b.Decide(user, protocol.OpGetContent, now)
		if sa != sb || oka != okb {
			t.Fatalf("divergent decision at i=%d: (%v,%v) vs (%v,%v)", i, sa, oka, sb, okb)
		}
	}
}

func TestDecideRespectsFraction(t *testing.T) {
	p := &Plan{Seed: 1, Rules: map[protocol.Op]Rule{protocol.OpPutContent: {Fraction: 0.1}}}
	var failed int
	const n = 20000
	for i := 0; i < n; i++ {
		if _, ok := p.Decide(protocol.UserID(i%100+1), protocol.OpPutContent,
			t0.Add(time.Duration(i)*time.Second)); ok {
			failed++
		}
	}
	if got := float64(failed) / n; got < 0.08 || got > 0.12 {
		t.Errorf("failure fraction = %v, want ≈ 0.10", got)
	}
}

func TestDecideScopedToPlannedOps(t *testing.T) {
	p := &Plan{Seed: 1, Rules: map[protocol.Op]Rule{protocol.OpUnlink: {Fraction: 1}}}
	if _, ok := p.Decide(1, protocol.OpUnlink, t0); !ok {
		t.Error("planned op at fraction 1 did not fail")
	}
	for _, op := range protocol.Ops() {
		if op == protocol.OpUnlink {
			continue
		}
		if st, ok := p.Decide(1, op, t0); ok {
			t.Errorf("unplanned op %v failed with %v", op, st)
		}
	}
}

func TestDecideDefaultsAndDisabled(t *testing.T) {
	var nilPlan *Plan
	if _, ok := nilPlan.Decide(1, protocol.OpPing, t0); ok {
		t.Error("nil plan injected")
	}
	if _, ok := (&Plan{}).Decide(1, protocol.OpPing, t0); ok {
		t.Error("zero plan injected")
	}
	p := &Plan{Rules: map[protocol.Op]Rule{protocol.OpPing: {Fraction: 1}}}
	if st, ok := p.Decide(1, protocol.OpPing, t0); !ok || st != protocol.StatusUnavailable {
		t.Errorf("default injected status = %v, %v; want unavailable", st, ok)
	}
	p.Rules[protocol.OpPing] = Rule{Fraction: 1, Status: protocol.StatusQuota}
	if st, _ := p.Decide(1, protocol.OpPing, t0); st != protocol.StatusQuota {
		t.Errorf("configured status = %v, want quota", st)
	}
}

func TestUniformPlanShape(t *testing.T) {
	if Uniform(1, 0) != nil {
		t.Error("rate 0 must disable the plan")
	}
	p := Uniform(9, 0.05)
	if len(p.Rules) == 0 {
		t.Fatal("uniform plan disabled")
	}
	for _, op := range []protocol.Op{protocol.OpAuthenticate, protocol.OpCloseSession} {
		if _, ok := p.Rules[op]; ok {
			t.Errorf("uniform plan must not target %v", op)
		}
	}
	if r := p.Rules[protocol.OpGetContent]; r.Fraction != 0.05 {
		t.Errorf("uniform fraction = %v", r.Fraction)
	}
	if len(p.Rules) != len(protocol.Ops())-2 {
		t.Errorf("uniform plan covers %d ops", len(p.Rules))
	}
}

func TestClassOf(t *testing.T) {
	cases := map[protocol.Op]Class{
		protocol.OpGetContent:   ClassData,
		protocol.OpPutPart:      ClassData,
		protocol.OpListVolumes:  ClassMetadata,
		protocol.OpUnlink:       ClassMetadata,
		protocol.OpPing:         ClassSession,
		protocol.OpAuthenticate: ClassSession,
		protocol.OpCloseSession: ClassSession,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
	for _, c := range []Class{ClassData, ClassMetadata, ClassSession} {
		if c.String() == "unknown" {
			t.Errorf("class %d must render", c)
		}
	}
}

func TestAdmissionLadder(t *testing.T) {
	a := NewAdmission(2, 2) // thresholds: data 2, metadata 4, session 8
	admit := func(op protocol.Op) bool { return a.Admit(0, op, t0) }
	for i := 0; i < 2; i++ {
		if !admit(protocol.OpGetContent) {
			t.Fatalf("data op %d shed below watermark", i)
		}
	}
	if admit(protocol.OpGetContent) {
		t.Error("data op admitted at the watermark")
	}
	for i := 0; i < 2; i++ {
		if !admit(protocol.OpListVolumes) {
			t.Fatalf("metadata op %d shed below 2x", i)
		}
	}
	if admit(protocol.OpListVolumes) {
		t.Error("metadata op admitted at 2x")
	}
	for i := 0; i < 4; i++ {
		if !admit(protocol.OpPing) {
			t.Fatalf("session op %d shed below 4x", i)
		}
	}
	if admit(protocol.OpPing) {
		t.Error("session op admitted at 4x")
	}
	if got := len(a.procs[0].entries); got != 8 {
		t.Errorf("windowed load = %d, want 8", got)
	}
	// Other procs are independent.
	if !a.Admit(1, protocol.OpGetContent, t0) {
		t.Error("independent proc shed")
	}
}

func TestAdmissionWindowSlides(t *testing.T) {
	a := NewAdmission(1, 1)
	if !a.Admit(0, protocol.OpGetContent, t0) {
		t.Fatal("first op shed")
	}
	if a.Admit(0, protocol.OpGetContent, t0.Add(30*time.Second)) {
		t.Error("admitted inside the window at the watermark")
	}
	if !a.Admit(0, protocol.OpGetContent, t0.Add(AdmissionWindow+time.Second)) {
		t.Error("shed after the charge left the window")
	}
	if got := len(a.procs[0].entries); got != 1 {
		t.Errorf("load after slide = %d, want 1", got)
	}
}

func TestAdmissionNilAndDisabled(t *testing.T) {
	var nilAdm *Admission
	if !nilAdm.Admit(0, protocol.OpGetContent, t0) {
		t.Error("nil admission shed")
	}
	off := NewAdmission(1, 0)
	for i := 0; i < 100; i++ {
		if !off.Admit(0, protocol.OpGetContent, t0) {
			t.Fatal("disabled admission shed")
		}
	}
	// Out-of-range procs fold to proc 0 instead of panicking.
	oob := NewAdmission(1, 1)
	if !oob.Admit(5, protocol.OpGetContent, t0) {
		t.Error("out-of-range proc shed on empty window")
	}
	if oob.Admit(-1, protocol.OpGetContent, t0) {
		t.Error("out-of-range proc bypassed the shared window")
	}
}
