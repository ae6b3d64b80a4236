package faults

import (
	"sync"
	"time"
)

// SSOAdmission is the session-tier admission model the §5.4 login storms
// called for and the per-op-class Admission controller deliberately does not
// cover: a fleet-shared token bucket in front of the SSO service. Every
// Authenticate request drains one token; an empty bucket sheds the request
// with StatusOverloaded at the API edge before the SSO tier is touched, so a
// credential-stuffing storm burns against the bucket instead of collapsing
// the authentication back-end for legitimate users.
//
// Refill is a pure function of elapsed (virtual) time, so under the serial
// driver the shed set is a deterministic function of the request arrival
// sequence; under parallel drivers it is live-state — the same contract as
// the windowed Admission controller.
type SSOAdmission struct {
	rate  float64 // tokens per second of virtual time
	burst float64 // bucket capacity

	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// NewSSOAdmission creates a bucket admitting a sustained rate of
// authentication requests per second (fractional rates model the simulator's
// compressed scale) with the given burst capacity. rate <= 0 disables the
// model and returns nil (nil buckets admit everything); burst < 1 is raised
// to 1 so an enabled bucket can always admit at least one request.
func NewSSOAdmission(rate, burst float64) *SSOAdmission {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &SSOAdmission{rate: rate, burst: burst, tokens: burst}
}

// Admit decides whether one Authenticate request at virtual time now may
// proceed, draining a token if so. Nil-safe: a nil bucket admits everything.
// The first call pins the refill clock; time moving backwards (bounded
// cross-shard epoch skew) refills nothing rather than going negative.
func (b *SSOAdmission) Admit(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.last, b.primed = now, true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
