package faults

import (
	"testing"
	"time"

	"u1/internal/protocol"
)

func phasePlan() *Plan {
	return &Plan{
		Seed: 9,
		Phases: []Phase{
			{
				From:  t0.Add(8 * time.Hour),
				Until: t0.Add(10 * time.Hour),
				Rules: map[protocol.Op]Rule{
					protocol.OpAuthenticate: {Fraction: 1},
					protocol.OpGetContent:   {Fraction: 1},
				},
			},
		},
	}
}

func TestPhaseWindowing(t *testing.T) {
	p := phasePlan()
	inside := t0.Add(9 * time.Hour)
	if _, ok := p.Decide(1, protocol.OpGetContent, inside); !ok {
		t.Error("op inside the phase window not injected")
	}
	// The window is [From, Until): its first instant injects, its last does
	// not.
	if _, ok := p.Decide(1, protocol.OpGetContent, t0.Add(8*time.Hour)); !ok {
		t.Error("op at phase start not injected")
	}
	if _, ok := p.Decide(1, protocol.OpGetContent, t0.Add(10*time.Hour)); ok {
		t.Error("op at phase end injected")
	}
	for _, outside := range []time.Time{t0, t0.Add(7 * time.Hour), t0.Add(11 * time.Hour)} {
		if st, ok := p.Decide(1, protocol.OpGetContent, outside); ok {
			t.Errorf("op outside the phase window injected with %v at %v", st, outside)
		}
	}
}

func TestPhaseCanTargetAuthenticate(t *testing.T) {
	// Uniform never touches Authenticate (the session machinery must work to
	// exercise per-op failures); a phase may — outages take logins down too.
	p := phasePlan()
	if _, ok := p.Decide(1, protocol.OpAuthenticate, t0.Add(9*time.Hour)); !ok {
		t.Error("phase rule for Authenticate not applied")
	}
	u := Uniform(9, 1)
	if _, ok := u.Decide(1, protocol.OpAuthenticate, t0.Add(9*time.Hour)); ok {
		t.Error("Uniform injected an Authenticate failure")
	}
}

func TestPhaseFallsBackToBaseRules(t *testing.T) {
	p := phasePlan()
	p.Rules = map[protocol.Op]Rule{protocol.OpPing: {Fraction: 1}}
	// Outside every phase the base rules apply...
	if _, ok := p.Decide(1, protocol.OpPing, t0); !ok {
		t.Error("base rule not applied outside phases")
	}
	// ...and inside a phase the phase's rules replace them wholesale.
	if _, ok := p.Decide(1, protocol.OpPing, t0.Add(9*time.Hour)); ok {
		t.Error("base rule leaked into a phase window")
	}
}

func TestPhaseFirstMatchWins(t *testing.T) {
	p := phasePlan()
	p.Phases = append(p.Phases, Phase{
		From:  t0.Add(9 * time.Hour),
		Until: t0.Add(12 * time.Hour),
		Rules: map[protocol.Op]Rule{protocol.OpPing: {Fraction: 1}},
	})
	// 9:30 is inside both phases; the first declared wins, so Ping (second
	// phase only) must not inject.
	overlap := t0.Add(9*time.Hour + 30*time.Minute)
	if _, ok := p.Decide(1, protocol.OpPing, overlap); ok {
		t.Error("second phase applied inside the first's window")
	}
	if _, ok := p.Decide(1, protocol.OpGetContent, overlap); !ok {
		t.Error("first phase not applied inside its window")
	}
	// Past the first phase's end the second takes over.
	after := t0.Add(11 * time.Hour)
	if _, ok := p.Decide(1, protocol.OpPing, after); !ok {
		t.Error("second phase not applied after the first ended")
	}
}

func TestPhaseEnablesPlan(t *testing.T) {
	window := Phase{From: t0, Until: t0.Add(time.Hour)}
	ping := window
	ping.Rules = map[protocol.Op]Rule{protocol.OpPing: {Fraction: 1}}
	if _, ok := (&Plan{Phases: []Phase{ping}}).Decide(1, protocol.OpPing, t0); !ok {
		t.Error("plan with only phase rules injects nothing")
	}
	if _, ok := (&Plan{Phases: []Phase{window}}).Decide(1, protocol.OpPing, t0); ok {
		t.Error("plan with an empty phase injects")
	}
}

func TestPhaseDecisionIsPureFunction(t *testing.T) {
	a, b := phasePlan(), phasePlan()
	a.Phases[0].Rules[protocol.OpGetContent] = Rule{Fraction: 0.4}
	b.Phases[0].Rules[protocol.OpGetContent] = Rule{Fraction: 0.4}
	for i := 0; i < 500; i++ {
		user := protocol.UserID(i%17 + 1)
		now := t0.Add(8*time.Hour + time.Duration(i)*13*time.Second)
		sa, oka := a.Decide(user, protocol.OpGetContent, now)
		sb, okb := b.Decide(user, protocol.OpGetContent, now)
		if sa != sb || oka != okb {
			t.Fatalf("divergent phase decision at i=%d", i)
		}
	}
}
