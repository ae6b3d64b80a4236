package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Matrix is the `u1 chaos` configuration: global scale defaults plus the
// scenario list. Every field an Entry leaves zero falls back to the matrix,
// then the spec's Defaults, then DefaultParams — so one config line per
// scenario is the common case.
type Matrix struct {
	Users   int   `json:"users,omitempty"`
	Days    int   `json:"days,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Scenarios run in order. Each entry is either a bare catalog name
	// ("sso-storm") or an object with per-entry overrides
	// ({"name": "flash-crowd", "users": 300}).
	Scenarios []Entry `json:"scenarios"`

	// MaxUsers / MaxDays clamp every resolved entry — the smoke-mode knobs
	// (-smoke), applied after resolution so catalog defaults shrink too.
	// Never serialized: smoke is a run mode, not part of the config.
	MaxUsers int `json:"-"`
	MaxDays  int `json:"-"`
}

// Entry selects one catalog scenario, with optional per-entry scale
// overrides.
type Entry struct {
	Name    string `json:"name"`
	Users   int    `json:"users,omitempty"`
	Days    int    `json:"days,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// UnmarshalJSON accepts both entry forms: a bare scenario-name string and
// the override object.
func (e *Entry) UnmarshalJSON(data []byte) error {
	t := bytes.TrimSpace(data)
	if len(t) > 0 && t[0] == '"' {
		return json.Unmarshal(data, &e.Name)
	}
	type raw Entry // shed the method set so Unmarshal can't recurse
	var r raw
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	*e = Entry(r)
	return nil
}

// ParseMatrix decodes and validates a `u1 chaos` config: top-level fields are
// strict (a typo fails loudly, not silently), the scenario list must be
// non-empty, and every name must resolve against the catalog.
func ParseMatrix(data []byte) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("scenario: parsing matrix config: %w", err)
	}
	if len(m.Scenarios) == 0 {
		return m, fmt.Errorf("scenario: matrix config lists no scenarios")
	}
	for _, e := range m.Scenarios {
		if _, err := Lookup(e.Name); err != nil {
			return m, err
		}
	}
	return m, nil
}

// params resolves one entry's run scale: entry override → matrix default →
// spec default → package default, then the smoke clamps.
func (m Matrix) params(e Entry, spec *Spec) Params {
	p := Params{Users: e.Users, Days: e.Days, Workers: e.Workers, Seed: e.Seed}
	p = p.fill(Params{Users: m.Users, Days: m.Days, Workers: m.Workers, Seed: m.Seed})
	p = spec.effective(p)
	if m.MaxUsers > 0 && p.Users > m.MaxUsers {
		p.Users = m.MaxUsers
	}
	if m.MaxDays > 0 && p.Days > m.MaxDays {
		p.Days = m.MaxDays
	}
	return p
}
