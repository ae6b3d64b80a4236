package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"u1/internal/scenario"
)

// Smoke-mode clamps: big enough that every catalog invariant still engages
// (storms shed, herds retry, disks journal), small enough for a CI lane.
const (
	smokeMaxUsers = 160
	smokeMaxDays  = 2
)

// runChaos is `u1 chaos`, the config-driven chaos runner: it executes a
// matrix of named catalog scenarios (scenario.Matrix), each a pure function
// of its config, and writes the per-scenario results as a u1-chaos/1 report.
// Every scenario carries its own invariant; any violation is an error, which
// is what the CI chaos job gates on. -smoke clamps every resolved entry to
// CI scale (it never edits the config); with a fixed config, seed and
// workers the emitted report is reproducible byte-for-byte.
func runChaos(args []string, stdout io.Writer) error {
	fs := newFlagSet("chaos")
	config := fs.String("config", "", "scenario matrix config (JSON)")
	out := fs.String("out", "chaos-report.json", "per-scenario report path (empty to skip)")
	smoke := fs.Bool("smoke", false, fmt.Sprintf("clamp every scenario to CI scale (max %d users, %d days)", smokeMaxUsers, smokeMaxDays))
	list := fs.Bool("list", false, "list the scenario catalog and exit")
	scenarios := fs.String("scenarios", "", "comma-separated catalog names to run instead of a config file")
	users := fs.Int("users", 0, "override user population for every scenario (0 = catalog default)")
	days := fs.Int("days", 0, "override trace window in days (0 = catalog default)")
	seed := fs.Int64("seed", 0, "override random seed (0 = catalog default)")
	workers := fs.Int("workers", 0, "override generator shards (0 = catalog default, 1 = serial)")
	verbose := fs.Bool("v", false, "narrate scenario progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, s := range scenario.Catalog() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.Name, s.Description)
		}
		return nil
	}

	m, err := matrixFrom(*config, *scenarios)
	if err != nil {
		return err
	}
	if *users != 0 {
		m.Users = *users
	}
	if *days != 0 {
		m.Days = *days
	}
	if *seed != 0 {
		m.Seed = *seed
	}
	if *workers != 0 {
		m.Workers = *workers
	}
	if *smoke {
		m.MaxUsers, m.MaxDays = smokeMaxUsers, smokeMaxDays
	}

	logger := log.New(os.Stderr, "u1 chaos: ", 0)
	logf := func(string, ...any) {}
	if *verbose {
		logf = logger.Printf
	}
	stats, violations, err := scenario.RunMatrix(m, logf)
	if err != nil {
		return err
	}

	for _, e := range m.Scenarios {
		st := stats[e.Name]
		verdict := "pass"
		if st.Invariant != "pass" {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "%-16s %s  ops=%d errors=%d injected=%d shed=%d sso_shed=%d retried=%d\n",
			e.Name, verdict, st.TotalOps, st.TotalErrors, st.Injected, st.Shed, st.SSOShed, st.Retried)
	}

	if *out != "" {
		if err := scenario.WriteReport(*out, stats); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d scenario reports to %s\n", len(stats), *out)
	}

	for _, v := range violations {
		logger.Printf("INVARIANT VIOLATED: %s", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d scenario invariant(s) violated", len(violations))
	}
	return nil
}

// matrixFrom resolves the run's matrix: a config file, or a -scenarios list,
// or (neither given) the full catalog in registration order.
func matrixFrom(config, scenarios string) (scenario.Matrix, error) {
	if config != "" && scenarios != "" {
		return scenario.Matrix{}, fmt.Errorf("-config and -scenarios are mutually exclusive")
	}
	if config != "" {
		data, err := os.ReadFile(config)
		if err != nil {
			return scenario.Matrix{}, err
		}
		return scenario.ParseMatrix(data)
	}
	var m scenario.Matrix
	if scenarios != "" {
		for _, name := range strings.Split(scenarios, ",") {
			name = strings.TrimSpace(name)
			if _, err := scenario.Lookup(name); err != nil {
				return m, err
			}
			m.Scenarios = append(m.Scenarios, scenario.Entry{Name: name})
		}
		return m, nil
	}
	for _, s := range scenario.Catalog() {
		m.Scenarios = append(m.Scenarios, scenario.Entry{Name: s.Name})
	}
	return m, nil
}
