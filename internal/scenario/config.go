package scenario

// Matrix is one `u1 chaos` run: the scenarios to run, in order, and the
// scale every one of them runs at. A zero scale field falls back to the
// spec's Defaults, then DefaultParams.
type Matrix struct {
	Users   int
	Days    int
	Seed    int64
	Workers int
	// Scenarios are catalog names, run in order.
	Scenarios []string

	// MaxUsers / MaxDays clamp every resolved scenario — the smoke-mode
	// knobs (-smoke), applied after resolution so catalog defaults shrink
	// too.
	MaxUsers int
	MaxDays  int
}

// params resolves one scenario's run scale: matrix (the flags) → spec
// default → package default, then the smoke clamps.
func (m Matrix) params(spec *Spec) Params {
	p := spec.effective(Params{Users: m.Users, Days: m.Days, Workers: m.Workers, Seed: m.Seed})
	if m.MaxUsers > 0 && p.Users > m.MaxUsers {
		p.Users = m.MaxUsers
	}
	if m.MaxDays > 0 && p.Days > m.MaxDays {
		p.Days = m.MaxDays
	}
	return p
}
