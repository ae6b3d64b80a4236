package auth

import (
	"errors"
	"testing"
	"time"

	"u1/internal/protocol"
)

func TestIssueValidate(t *testing.T) {
	s := New(Config{})
	tok, err := s.Issue(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tok) != 32 {
		t.Errorf("token length = %d", len(tok))
	}
	user, err := s.Validate(tok)
	if err != nil || user != 42 {
		t.Errorf("validate = %v, %v", user, err)
	}
	if _, err := s.Validate("bogus"); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("bogus token err = %v", err)
	}
	st := s.Stats()
	if st.Issued != 1 || st.Validated != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRevoke(t *testing.T) {
	s := New(Config{})
	tok, _ := s.Issue(1)
	s.Revoke(tok)
	if _, err := s.Validate(tok); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Error("revoked token should fail")
	}
}

func TestRevokeUser(t *testing.T) {
	s := New(Config{})
	t1, _ := s.Issue(7)
	t2, _ := s.Issue(7)
	t3, _ := s.Issue(8)
	if n := s.RevokeUser(7); n != 2 {
		t.Errorf("revoked %d tokens, want 2", n)
	}
	for _, tok := range []string{t1, t2} {
		if _, err := s.Validate(tok); err == nil {
			t.Error("user-7 token should be revoked")
		}
	}
	if _, err := s.Validate(t3); err != nil {
		t.Error("user-8 token should survive")
	}
}

func TestFailureInjection(t *testing.T) {
	// The paper's measured rate: 2.76% of auth requests fail.
	s := New(Config{FailureRate: PaperFailureRate, Seed: 5})
	tok, _ := s.Issue(1)
	start := time.Unix(1390000000, 0)
	var failed int
	const n = 20000
	for i := 0; i < n; i++ {
		if s.InjectedFailure(tok, start.Add(time.Duration(i)*time.Second)) {
			failed++
		}
	}
	rate := float64(failed) / float64(n)
	if rate < 0.02 || rate > 0.036 {
		t.Errorf("failure rate = %v, want ≈ %v", rate, PaperFailureRate)
	}
	if got := s.Stats().Failed; got != uint64(failed) {
		t.Errorf("failed counter = %d, want %d", got, failed)
	}
	// Validate itself never flakes: injection is a request-level concern.
	for i := 0; i < 1000; i++ {
		if _, err := s.Validate(tok); err != nil {
			t.Fatalf("Validate flaked at %d: %v", i, err)
		}
	}
}

// TestFailureInjectionDeterministic pins the parallel-driver contract: the
// failure decision is a pure function of (Seed, token, now), so the same
// validation replayed at the same virtual instant fails the same way no
// matter which goroutine gets there first, and different seeds decorrelate.
func TestFailureInjectionDeterministic(t *testing.T) {
	s1 := New(Config{FailureRate: PaperFailureRate, Seed: 5})
	s2 := New(Config{FailureRate: PaperFailureRate, Seed: 5})
	tok, _ := s1.Issue(1)
	raw, _ := decodeToken(tok)
	s2.tokens[raw] = 1 // mirror the token table
	start := time.Unix(1390000000, 0)
	var diverged, failed int
	for i := 0; i < 5000; i++ {
		now := start.Add(time.Duration(i) * 17 * time.Second)
		f1 := s1.InjectedFailure(tok, now)
		f2 := s2.InjectedFailure(tok, now)
		if f1 != f2 {
			diverged++
		}
		if f1 {
			failed++
		}
	}
	if diverged != 0 {
		t.Errorf("%d validations diverged between identical services", diverged)
	}
	if failed == 0 {
		t.Error("no failures injected at 2.76% over 5000 draws")
	}
}

func TestCache(t *testing.T) {
	// The cache keys by decoded token, so use canonical 32-hex tokens as
	// the service issues them.
	tok := "00112233445566778899aabbccddeeff"
	dtok := "ffeeddccbbaa99887766554433221100"
	c := NewCache(time.Hour)
	now := time.Unix(1390000000, 0)
	if _, ok := c.Get(tok, now); ok {
		t.Error("empty cache should miss")
	}
	c.Put(tok, 9, now)
	if user, ok := c.Get(tok, now.Add(time.Minute)); !ok || user != 9 {
		t.Errorf("cache hit = %v, %v", user, ok)
	}
	// Expired entries miss and are evicted.
	if _, ok := c.Get(tok, now.Add(2*time.Hour)); ok {
		t.Error("expired entry should miss")
	}
	if _, ok := c.Get(tok, now.Add(time.Minute)); ok {
		t.Error("expired entry should have been evicted")
	}
	c.Put(dtok, 1, now)
	c.Drop(dtok)
	if _, ok := c.Get(dtok, now); ok {
		t.Error("dropped entry should miss")
	}
	// Tokens the service could never have issued are not cached at all.
	c.Put("not-a-token", 2, now)
	if _, ok := c.Get("not-a-token", now); ok {
		t.Error("non-canonical token should not be cached")
	}
	if hr := c.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v", hr)
	}
	if NewCache(time.Hour).HitRate() != 0 {
		t.Error("unused cache hit rate should be 0")
	}
}
