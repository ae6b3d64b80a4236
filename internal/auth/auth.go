// Package auth implements the Canonical SSO stand-in: the OAuth-style token
// service of §3.4.1. The first connection of a user trades credentials for a
// token; later connections present the token and the service resolves it to a
// user id. API servers cache validated tokens for the session lifetime to
// avoid overloading this shared service.
//
// The production service showed a 2.76% request failure rate (§7.3); the
// same rate can be injected here so downstream retry paths and the Fig. 15
// analysis see realistic failures.
package auth

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"u1/internal/protocol"
	"u1/internal/stats"
)

// PaperFailureRate is the share of SSO requests that failed in the paper's
// trace (§7.3): the FailureRate a paper-calibrated run injects.
const PaperFailureRate = 0.0276

// Config parameterizes the service.
type Config struct {
	// FailureRate injects random validation failures with this probability
	// (the paper measured PaperFailureRate). Zero disables injection.
	FailureRate float64
	// Seed makes failure injection reproducible. Zero uses a fixed default.
	Seed int64
	// Capacity models the SSO back-end's sustained authentication throughput
	// in requests per second, measured over a trailing CapacityWindow
	// (fractional values fit the simulator's compressed request rates). When
	// the windowed arrival rate exceeds it, goodput collapses and requests
	// fail — the §5.4 back-end overload. Zero disables the model.
	Capacity float64
}

// Counters tracks the request accounting of §7.3 / Fig. 15.
type Counters struct {
	Issued    uint64
	Validated uint64
	Failed    uint64
	Revoked   uint64
	// Overloaded counts requests failed by the capacity model (a subset of
	// Failed).
	Overloaded uint64
}

// Service is the token service. It models the deployment of §3.4.1 (one
// database server with hot failover behind two application servers) as a
// single consistent token table; the redundancy aspects are not part of any
// measured result.
type Service struct {
	cfg  Config
	seed int64

	mu sync.Mutex
	// tokens is keyed by the decoded token: the service mints 32-char hex
	// strings, so storing the 16 raw bytes instead of a heap string per token
	// saves ~50 bytes per user at million-user populations. Tokens that are
	// not well-formed hex never came from Issue and resolve as unknown.
	tokens   map[[tokenRawLen]byte]protocol.UserID
	counters Counters
	// load holds the arrival times of the trailing CapacityWindow when the
	// capacity model is on; every request that reaches the tier registers
	// here, whether or not it succeeds.
	load []time.Time
}

// New creates the service.
func New(cfg Config) *Service {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Service{
		cfg:    cfg,
		seed:   seed,
		tokens: make(map[[tokenRawLen]byte]protocol.UserID),
	}
}

// tokenRawLen is the raw entropy per token; tokens are its hex encoding.
const tokenRawLen = 16

// decodeToken recovers the raw bytes of a service-minted token. Issue only
// emits lowercase hex, so rejecting anything else keeps the mapping
// injective: no two distinct token strings share a decoded key.
func decodeToken(token string) (raw [tokenRawLen]byte, ok bool) {
	if len(token) != 2*tokenRawLen {
		return raw, false
	}
	for i := 0; i < len(token); i += 2 {
		hi, ok1 := hexNibble(token[i])
		lo, ok2 := hexNibble(token[i+1])
		if !ok1 || !ok2 {
			return raw, false
		}
		raw[i/2] = hi<<4 | lo
	}
	return raw, true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Issue trades credentials for a new token tied to user. Credential checking
// itself is out of scope (the trace never carries passwords); the token is
// cryptographically random as in OAuth.
func (s *Service) Issue(user protocol.UserID) (string, error) {
	var raw [tokenRawLen]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("auth: generating token: %w", err)
	}
	token := hex.EncodeToString(raw[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tokens[raw] = user
	s.counters.Issued++
	return token, nil
}

// lookup resolves a token string to its user without counting.
func (s *Service) lookup(token string) (protocol.UserID, bool) {
	raw, ok := decodeToken(token)
	if !ok {
		return 0, false
	}
	user, ok := s.tokens[raw]
	return user, ok
}

// failureDraw derives the transient-failure uniform for one authentication
// request as a pure function of (Seed, user, now), scrambled through
// splitmix64. Keying on the user — not the token string, which is
// crypto-random and differs between runs — and on the virtual request time —
// not a shared draw sequence, whose Nth value would go to whichever caller
// got the lock first — is what keeps SSO failures reproducible across runs
// and under a parallel driver.
func (s *Service) failureDraw(user protocol.UserID, now time.Time) float64 {
	z := stats.Splitmix64(uint64(user)*stats.Splitmix64Gamma + uint64(s.seed) + uint64(now.UnixNano()))
	return float64(z>>11) / (1 << 53)
}

// InjectedFailure reports whether the authentication request presenting
// token at virtual time now is one of the injected transient SSO failures
// (§7.3's 2.76% is measured over authentication requests, so the draw
// applies per request, not per cache-missing SSO round trip). The decision
// is a pure function of (Seed, token's user, now) — independent of
// token-cache state, session placement and caller interleaving, which is
// what keeps the parallel generator's failure stream reproducible. Unknown
// tokens draw no failure (validation rejects them anyway). A true return is
// counted as a failed request.
func (s *Service) InjectedFailure(token string, now time.Time) bool {
	if s.cfg.FailureRate <= 0 {
		return false
	}
	s.mu.Lock()
	user, ok := s.lookup(token)
	s.mu.Unlock()
	if !ok || s.failureDraw(user, now) >= s.cfg.FailureRate {
		return false
	}
	s.mu.Lock()
	s.counters.Failed++
	s.mu.Unlock()
	return true
}

// CapacityWindow is the trailing window over which the capacity model
// measures the authentication arrival rate. It is deliberately much longer
// than faults.AdmissionWindow: at the simulator's compressed scale login
// traffic is sparse (whole sessions per hour, not per second), so a
// minute-sized window would see at most a request or two and the rate
// estimate would be all noise.
const CapacityWindow = time.Hour

// overloadSalt isolates the capacity model's failure draws from the §7.3
// transient-injection stream keyed on the same (seed, user, now).
const overloadSalt = 0x5e55_10ad

// overloadDraw derives the overload-failure uniform for one request as a
// pure function of (Seed, user, now) — the same keying discipline as
// failureDraw, salted so the two streams never alias.
func (s *Service) overloadDraw(user protocol.UserID, now time.Time) float64 {
	z := stats.Splitmix64(stats.Splitmix64(uint64(s.seed)+overloadSalt) +
		uint64(user)*stats.Splitmix64Gamma + uint64(now.UnixNano()))
	return float64(z>>11) / (1 << 53)
}

// Overloaded reports whether the authentication request presenting token at
// virtual time now fails because the SSO back-end is past capacity — the
// §5.4 overload shape, where a login storm does not just slow the tier down
// but collapses its goodput for everyone, legitimate users included. Every
// call registers the request in the trailing load window first (the request
// reached the tier whether or not it fails, and before any cache could
// absorb it — the paper's token caches exist precisely because this tier is
// the fragile one). When the windowed arrival rate L exceeds Capacity C the
// request fails with probability 1 - (C/L)², so surviving goodput is C²/L:
// the further past capacity the storm pushes, the less real work the tier
// completes. The failure decision itself is a pure function of (Seed, user,
// now); the live load window makes the overall model serial-driver
// deterministic, like admission control. Unknown tokens register load but
// draw no failure (validation rejects them anyway).
func (s *Service) Overloaded(token string, now time.Time) bool {
	if s.cfg.Capacity <= 0 {
		return false
	}
	s.mu.Lock()
	user, known := s.lookup(token)
	cutoff := now.Add(-CapacityWindow)
	live := s.load[:0]
	for _, t := range s.load {
		if t.After(cutoff) {
			live = append(live, t)
		}
	}
	s.load = append(live, now)
	rate := float64(len(s.load)) / CapacityWindow.Seconds()
	s.mu.Unlock()
	if !known || rate <= s.cfg.Capacity {
		return false
	}
	ratio := s.cfg.Capacity / rate
	if s.overloadDraw(user, now) >= 1-ratio*ratio {
		return false
	}
	s.mu.Lock()
	s.counters.Overloaded++
	s.counters.Failed++
	s.mu.Unlock()
	return true
}

// Validate resolves a token to its user (auth.get_user_id_from_token).
// Unknown tokens yield protocol.ErrAuthFailed; the transient-failure
// injection of InjectedFailure happens at the request level, before any
// cache consult, so Validate itself never flakes.
func (s *Service) Validate(token string) (protocol.UserID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	user, ok := s.lookup(token)
	if !ok {
		s.counters.Failed++
		return 0, fmt.Errorf("%w: unknown token", protocol.ErrAuthFailed)
	}
	s.counters.Validated++
	return user, nil
}

// RevokeUser invalidates every token of a user and returns how many were
// dropped.
func (s *Service) RevokeUser(user protocol.UserID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for tok, u := range s.tokens {
		if u == user {
			delete(s.tokens, tok)
			n++
		}
	}
	s.counters.Revoked += uint64(n)
	return n
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Cache is the per-API-server token cache of §3.4.1: validated tokens are
// remembered for a TTL so steady-state traffic does not hit the shared
// authentication service.
type Cache struct {
	ttl time.Duration

	mu      sync.Mutex
	entries map[[tokenRawLen]byte]cacheEntry
	puts    uint64
}

// cacheEntry is 16 bytes: the expiry is kept as Unix nanoseconds rather
// than a 24-byte time.Time, and entries are keyed by the decoded token
// rather than its 32-byte hex string — at a million users the cache holds
// one entry per recently-validated token, so entry size is real memory.
// Non-canonical tokens (which the service never issues) are simply not
// cached: a miss revalidates, which is always correct for a cache.
type cacheEntry struct {
	user    protocol.UserID
	expires int64 // Unix nanoseconds
}

// NewCache creates a cache with the given TTL.
func NewCache(ttl time.Duration) *Cache {
	return &Cache{ttl: ttl, entries: make(map[[tokenRawLen]byte]cacheEntry)}
}

// Get returns the cached user for token if fresh at time now.
func (c *Cache) Get(token string, now time.Time) (protocol.UserID, bool) {
	raw, canonical := decodeToken(token)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !canonical {
		return 0, false
	}
	e, ok := c.entries[raw]
	if !ok || now.UnixNano() > e.expires {
		if ok {
			delete(c.entries, raw)
		}
		return 0, false
	}
	return e.user, true
}

// Put caches a validated token. Every few thousand puts it sweeps out
// expired entries: Get only evicts the token it was asked about, so without
// the sweep entries of users who never reconnect would accumulate forever —
// real memory once populations reach millions. The sweep is invisible to
// Get, which treats expired and absent entries identically.
func (c *Cache) Put(token string, user protocol.UserID, now time.Time) {
	raw, canonical := decodeToken(token)
	if !canonical {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.puts%4096 == 0 {
		cutoff := now.UnixNano()
		for tok, e := range c.entries {
			if cutoff > e.expires {
				delete(c.entries, tok)
			}
		}
	}
	c.entries[raw] = cacheEntry{user: user, expires: now.Add(c.ttl).UnixNano()}
}

// Drop removes a token from the cache (on revocation).
func (c *Cache) Drop(token string) {
	if raw, ok := decodeToken(token); ok {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.entries, raw)
	}
}
