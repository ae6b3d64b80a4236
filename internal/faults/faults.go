// Package faults implements the operational failure machinery of §5.4 that
// the success-path reproduction lacked: deterministic per-operation fault
// injection and per-op-class admission control (load shedding).
//
// # Fault plans
//
// A Plan fails a configured fraction of chosen operations with chosen wire
// statuses. The decision for one request is a pure function of
// (Seed, user, op, virtual now), scrambled through the repo's shared
// splitmix64 mix — the same idiom as the auth service's SSO failure
// injection. No shared RNG sequence is consumed, so the failure stream is
// identical regardless of which server handles the request, how goroutines
// interleave, or how many generator shards drive the cluster: any fixed
// (Seed, Workers, Plan) reproduces the same injected failures. The zero
// value (and nil) injects nothing.
//
// # Admission control
//
// Admission models the provider-side load shedding U1 operators resorted to
// during the §5.4 DDoS events. Each API process tracks the requests it
// admitted over a trailing accounting window (one minute); when that
// in-flight load crosses the watermark, new work is shed by operation class
// — data transfers first, metadata next, session management last — with
// StatusOverloaded, so a storm cannot starve session teardown or keepalives
// while the bulk traffic is refused. Shedding depends on live per-process
// load, so unlike Plan it is only reproducible under a serial driver.
//
// SSOAdmission covers the one class Admission leaves alone: Authenticate.
// It is a fleet-shared token bucket in front of the SSO tier, draining one
// token per login attempt, so a §5.4 credential storm is shed with
// StatusOverloaded before it can collapse the authentication back-end.
package faults

import (
	"time"

	"u1/internal/protocol"
	"u1/internal/stats"
)

// Rule is the injection policy for one operation.
type Rule struct {
	// Fraction of requests to fail, in [0, 1].
	Fraction float64
	// Status is the injected wire status; zero means StatusUnavailable.
	Status protocol.Status
}

// Plan is a deterministic per-op fault plan. The zero value injects nothing.
type Plan struct {
	// Seed isolates the plan's failure stream from other seeded subsystems.
	Seed int64
	// Rules maps each targeted operation to its injection policy; absent
	// operations never fail.
	Rules map[protocol.Op]Rule
	// Phases scope alternative rule sets to virtual-time windows — the
	// building block of scenario fault schedules (outage windows, degraded
	// intervals, recovery ramps). While now falls inside a phase, that
	// phase's Rules replace the base Rules entirely; outside every phase the
	// base Rules apply. Phases are consulted in order, first match wins.
	Phases []Phase
}

// Phase is one virtual-time window [From, Until) with its own rule set.
// Unlike the base Rules, a phase may target OpAuthenticate — a full outage
// takes the login path down with everything else — so scenario schedules can
// express the §5.4 shapes Uniform deliberately exempts.
type Phase struct {
	From  time.Time
	Until time.Time
	Rules map[protocol.Op]Rule
}

// rulesAt resolves the rule set in force at virtual time now: the first
// matching phase's rules, else the base rules. Still a pure function of the
// plan and now, so phased decisions stay reproducible.
func (p *Plan) rulesAt(now time.Time) map[protocol.Op]Rule {
	for i := range p.Phases {
		ph := &p.Phases[i]
		if !now.Before(ph.From) && now.Before(ph.Until) {
			return ph.Rules
		}
	}
	return p.Rules
}

// Uniform builds a plan failing every operation except session lifecycle
// (Authenticate has its own calibrated SSO injection, §7.3, and CloseSession
// must stay reliable for teardown) at the given fraction with
// StatusUnavailable. rate <= 0 yields a nil (disabled) plan.
func Uniform(seed int64, rate float64) *Plan {
	if rate <= 0 {
		return nil
	}
	p := &Plan{Seed: seed, Rules: make(map[protocol.Op]Rule)}
	for _, op := range protocol.Ops() {
		if op == protocol.OpAuthenticate || op == protocol.OpCloseSession {
			continue
		}
		p.Rules[op] = Rule{Fraction: rate}
	}
	return p
}

// draw derives the injection uniform for one request as a pure function of
// (Seed, user, op, now). Chaining two splitmix rounds keeps the op index —
// a small integer — from aliasing with nearby seeds or user ids.
func (p *Plan) draw(user protocol.UserID, op protocol.Op, now time.Time) float64 {
	z := stats.Splitmix64(stats.Splitmix64(uint64(p.Seed)+uint64(op)*stats.Splitmix64Gamma) +
		uint64(user)*stats.Splitmix64Gamma + uint64(now.UnixNano()))
	return float64(z>>11) / (1 << 53)
}

// Decide reports whether the request (user, op, now) is one of the injected
// failures, and with which status. Nil-safe; a false return means the
// request proceeds normally.
func (p *Plan) Decide(user protocol.UserID, op protocol.Op, now time.Time) (protocol.Status, bool) {
	if p == nil {
		return protocol.StatusOK, false
	}
	rule, ok := p.rulesAt(now)[op]
	if !ok || rule.Fraction <= 0 || p.draw(user, op, now) >= rule.Fraction {
		return protocol.StatusOK, false
	}
	st := rule.Status
	if st == protocol.StatusOK {
		st = protocol.StatusUnavailable
	}
	return st, true
}
