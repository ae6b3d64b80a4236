package faults

import (
	"testing"
	"time"
)

func TestSSOAdmissionDisabled(t *testing.T) {
	if NewSSOAdmission(0, 5) != nil {
		t.Error("rate 0 must disable the bucket")
	}
	if NewSSOAdmission(-1, 5) != nil {
		t.Error("negative rate must disable the bucket")
	}
	var nilBucket *SSOAdmission
	for i := 0; i < 10; i++ {
		if !nilBucket.Admit(t0.Add(time.Duration(i) * time.Second)) {
			t.Fatal("nil bucket refused a request")
		}
	}
}

func TestSSOAdmissionBurstThenRefill(t *testing.T) {
	// 1 token/sec, burst 3: the first 3 back-to-back requests pass, the 4th
	// is shed, and one second later exactly one more fits.
	b := NewSSOAdmission(1, 3)
	for i := 0; i < 3; i++ {
		if !b.Admit(t0) {
			t.Fatalf("request %d within burst was shed", i)
		}
	}
	if b.Admit(t0) {
		t.Error("request beyond burst admitted")
	}
	later := t0.Add(time.Second)
	if !b.Admit(later) {
		t.Error("refilled token not granted")
	}
	if b.Admit(later) {
		t.Error("second request after one refill admitted")
	}
}

func TestSSOAdmissionCapsAtBurst(t *testing.T) {
	// A long idle period must not bank more than burst tokens.
	b := NewSSOAdmission(10, 2)
	if !b.Admit(t0) {
		t.Fatal("first request shed")
	}
	later := t0.Add(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if b.Admit(later) {
			admitted++
		}
	}
	if admitted != 2 {
		t.Errorf("admitted %d back-to-back after idle, want burst (2)", admitted)
	}
}

func TestSSOAdmissionSustainedRate(t *testing.T) {
	// Over a long window, throughput converges to the configured rate no
	// matter how hard the storm hammers.
	b := NewSSOAdmission(2, 4) // 2/sec
	admitted := 0
	const perSec, secs = 50, 100
	for i := 0; i < perSec*secs; i++ {
		at := t0.Add(time.Duration(i) * time.Second / perSec)
		if b.Admit(at) {
			admitted++
		}
	}
	want := 2 * secs
	if admitted < want-1 || admitted > want+4 /* + burst */ {
		t.Errorf("admitted %d over %ds at rate 2/s, want ≈ %d", admitted, secs, want)
	}
}

func TestSSOAdmissionClockStall(t *testing.T) {
	// A non-advancing (or rewinding) clock must not refill the bucket.
	b := NewSSOAdmission(100, 1)
	if !b.Admit(t0) {
		t.Fatal("first request shed")
	}
	if b.Admit(t0) {
		t.Error("stalled clock refilled the bucket")
	}
	if b.Admit(t0.Add(-time.Minute)) {
		t.Error("rewound clock refilled the bucket")
	}
}

func TestSSOAdmissionMinimumBurst(t *testing.T) {
	// burst < 1 is clamped to 1: a bucket that can never admit is useless.
	b := NewSSOAdmission(1, 0)
	if !b.Admit(t0) {
		t.Error("burst-clamped bucket shed its first request")
	}
	if got := NewSSOAdmission(1, 0.2).tokens; got != 1 {
		t.Errorf("initial tokens = %v, want clamped burst 1", got)
	}
}
