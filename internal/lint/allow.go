package lint

import (
	"go/token"
	"strings"
)

// The `//u1:allow` annotation grammar:
//
//	//u1:allow <rule> <reason>
//
// where <rule> is a registered pass's Allow token (wallclock, maporder,
// unused) and <reason> is free non-empty text explaining why the exemption
// is correct. The annotation exempts findings of
// that rule on the annotation's own line or, when the annotation stands
// alone, on the line directly below it. Every exemption must earn its keep:
// an annotation that suppressed nothing in a run is reported as stale, and a
// malformed or unknown-rule annotation is always reported.

const allowMarker = "u1:allow"

// allow is one parsed annotation.
type allow struct {
	rule   string
	reason string
	pos    token.Position
	// standalone marks a comment that occupies its own line (no code before
	// it), which exempts the following line instead of its own.
	standalone bool
	used       bool
	// bad carries the parse problem for malformed annotations, which can
	// never suppress anything.
	bad string
}

// allowSet indexes a package's annotations by (file, exempted line).
type allowSet struct {
	byLine map[string]map[int]*allow
	all    []*allow
}

// collectAllows parses every u1:allow annotation in pkg's files.
func collectAllows(pkg *Package) *allowSet {
	set := &allowSet{byLine: make(map[string]map[int]*allow)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				a := parseAllow(text, pos)
				// A comment starting at column 1..N with no code before it on
				// its line is standalone; compare the comment's line with the
				// line of the code it trails. Cheapest reliable signal: does
				// any declaration/statement token share the line? We answer
				// via the file's token positions — a trailing comment always
				// sits after code, so its column is well past gofmt's
				// indentation-only columns. Instead of guessing from columns,
				// check whether the comment group is a line-leading group:
				// ast associates trailing comments and leading comments
				// identically, so we look at the raw source line via the
				// position of the first token on that line. go/token does not
				// expose that directly; we mark standalone when the comment's
				// column equals the indentation of the *next* line's code —
				// in practice gofmt makes standalone comments start the line,
				// so a comment whose column is the first non-blank column is
				// standalone. The loader records line offsets to answer this.
				a.standalone = pkg.commentStandsAlone(c)
				set.add(a)
			}
		}
	}
	return set
}

// parseAllow parses the annotation text (sans `//`, trimmed).
func parseAllow(text string, pos token.Position) *allow {
	rest := strings.TrimPrefix(text, allowMarker)
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		// e.g. "u1:allowx" — not ours.
		return &allow{pos: pos, bad: "malformed u1:allow annotation: expected `//u1:allow <rule> <reason>`"}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return &allow{pos: pos, bad: "u1:allow annotation missing a rule: expected `//u1:allow <rule> <reason>`"}
	}
	rule := fields[0]
	if passByAllow(rule) == nil {
		known := make([]string, 0, len(Passes()))
		for _, p := range Passes() {
			known = append(known, p.Allow)
		}
		return &allow{pos: pos, bad: "u1:allow annotation names unknown rule " + rule + " (known: " + strings.Join(known, ", ") + ")"}
	}
	if len(fields) < 2 {
		return &allow{pos: pos, rule: rule, bad: "u1:allow " + rule + " annotation has no reason; every exemption must say why it is correct"}
	}
	return &allow{rule: rule, reason: strings.Join(fields[1:], " "), pos: pos}
}

func (s *allowSet) add(a *allow) {
	line := a.pos.Line
	if a.standalone {
		line++ // a standalone annotation exempts the line below it
	}
	m := s.byLine[a.pos.Filename]
	if m == nil {
		m = make(map[int]*allow)
		s.byLine[a.pos.Filename] = m
	}
	if m[line] == nil {
		m[line] = a
	}
	s.all = append(s.all, a)
}

// lookup returns the live annotation exempting rule at pos, if any.
func (s *allowSet) lookup(rule string, pos token.Position) *allow {
	a := s.byLine[pos.Filename][pos.Line]
	if a == nil || a.bad != "" || a.rule != rule {
		return nil
	}
	return a
}

// problems returns diagnostics for malformed and stale annotations.
func (s *allowSet) problems() []Diagnostic {
	var out []Diagnostic
	for _, a := range s.all {
		switch {
		case a.bad != "":
			out = append(out, Diagnostic{Pos: a.pos, Pass: "allow", Message: a.bad})
		case !a.used:
			out = append(out, Diagnostic{
				Pos:  a.pos,
				Pass: "allow",
				Message: "stale u1:allow " + a.rule + " annotation: it suppresses nothing " +
					"(the violation moved or was fixed; delete the annotation)",
			})
		}
	}
	return out
}
