package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestParseAllow pins the annotation grammar: `//u1:allow <rule> <reason>`,
// with every malformation reported rather than silently ignored.
func TestParseAllow(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 7}
	cases := []struct {
		name   string
		text   string // as seen after stripping `//` and trimming
		rule   string
		reason string
		badSub string // "" means the annotation must parse clean
	}{
		{"valid", "u1:allow wallclock lock-hold measurement", "wallclock", "lock-hold measurement", ""},
		{"valid multi-word reason", "u1:allow maporder feeds an unordered set", "maporder", "feeds an unordered set", ""},
		{"tab separated", "u1:allow\tmaporder\tfeeds an unordered set", "maporder", "feeds an unordered set", ""},
		{"reason collapses whitespace", "u1:allow unused  a   b", "unused", "a b", ""},
		{"missing reason", "u1:allow wallclock", "", "", "has no reason"},
		{"missing rule", "u1:allow", "", "", "missing a rule"},
		{"fused marker", "u1:allowx", "", "", "malformed u1:allow annotation"},
		{"unknown rule", "u1:allow bogus because reasons", "", "", "unknown rule bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := parseAllow(tc.text, pos)
			if tc.badSub != "" {
				if a.bad == "" || !strings.Contains(a.bad, tc.badSub) {
					t.Fatalf("parseAllow(%q).bad = %q, want substring %q", tc.text, a.bad, tc.badSub)
				}
				return
			}
			if a.bad != "" {
				t.Fatalf("parseAllow(%q) unexpectedly bad: %s", tc.text, a.bad)
			}
			if a.rule != tc.rule || a.reason != tc.reason {
				t.Fatalf("parseAllow(%q) = rule %q reason %q, want %q %q", tc.text, a.rule, a.reason, tc.rule, tc.reason)
			}
		})
	}
}

// TestAllowSetLineBinding pins the exemption scope rules: a standalone
// annotation binds to the next line, a trailing one to its own line, and
// lookups match only the annotated rule.
func TestAllowSetLineBinding(t *testing.T) {
	set := &allowSet{byLine: make(map[string]map[int]*allow)}
	standalone := &allow{rule: "wallclock", reason: "r", standalone: true,
		pos: token.Position{Filename: "a.go", Line: 10}}
	trailing := &allow{rule: "maporder", reason: "r",
		pos: token.Position{Filename: "a.go", Line: 20}}
	set.add(standalone)
	set.add(trailing)

	if set.lookup("wallclock", token.Position{Filename: "a.go", Line: 11}) != standalone {
		t.Errorf("standalone annotation on line 10 should exempt line 11")
	}
	if set.lookup("wallclock", token.Position{Filename: "a.go", Line: 10}) != nil {
		t.Errorf("standalone annotation must not exempt its own line")
	}
	if set.lookup("maporder", token.Position{Filename: "a.go", Line: 20}) != trailing {
		t.Errorf("trailing annotation on line 20 should exempt line 20")
	}
	if set.lookup("wallclock", token.Position{Filename: "a.go", Line: 20}) != nil {
		t.Errorf("rule mismatch must not exempt")
	}
	if set.lookup("maporder", token.Position{Filename: "b.go", Line: 20}) != nil {
		t.Errorf("file mismatch must not exempt")
	}

	// Neither annotation was marked used: both must surface as stale.
	stale := 0
	for _, d := range set.problems() {
		if strings.Contains(d.Message, "stale u1:allow") {
			stale++
		}
	}
	if stale != 2 {
		t.Errorf("expected 2 stale diagnostics, got %d", stale)
	}
}
