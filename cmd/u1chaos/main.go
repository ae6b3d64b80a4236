// Command u1chaos is the config-driven chaos runner: it executes a matrix of
// named catalog scenarios (internal/scenario) — SSO login storms, regional
// outages, slow disks, thundering herds, flash crowds — each a pure function
// of its config, and writes the per-scenario results as a u1-chaos/1 report
// ({"schema": "u1-chaos/1", "scenarios": {…}}). Every scenario carries its
// own invariant; any violation is printed and exits non-zero, which is what
// the CI chaos job gates on.
//
// Usage:
//
//	u1chaos -config chaos.json [-out chaos-report.json] [-smoke] [-v]
//	u1chaos -scenarios sso-storm,flash-crowd [-users N] [-days N] [-seed N] [-workers N]
//	u1chaos -list
//
// The config is a JSON matrix: optional global scale defaults plus the
// scenario list, where each element is a bare catalog name or an object with
// per-entry overrides:
//
//	{"users": 150, "scenarios": ["sso-storm", {"name": "flash-crowd", "users": 300}]}
//
// -smoke clamps every resolved entry to CI scale (it never edits the
// config); with a fixed config, seed and workers the emitted report is
// reproducible byte-for-byte.
package main

import (
	"flag"
	"fmt"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("u1chaos: ")

	config := flag.String("config", "", "scenario matrix config (JSON)")
	out := flag.String("out", "chaos-report.json", "per-scenario report path (empty to skip)")
	smoke := flag.Bool("smoke", false, fmt.Sprintf("clamp every scenario to CI scale (max %d users, %d days)", smokeMaxUsers, smokeMaxDays))
	list := flag.Bool("list", false, "list the scenario catalog and exit")
	scenarios := flag.String("scenarios", "", "comma-separated catalog names to run instead of a config file")
	users := flag.Int("users", 0, "override user population for every scenario (0 = catalog default)")
	days := flag.Int("days", 0, "override trace window in days (0 = catalog default)")
	seed := flag.Int64("seed", 0, "override random seed (0 = catalog default)")
	workers := flag.Int("workers", 0, "override generator shards (0 = catalog default, 1 = serial)")
	verbose := flag.Bool("v", false, "narrate scenario progress")
	flag.Parse()

	if *list {
		for _, s := range scenario.Catalog() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return
	}

	m, err := matrixFrom(*config, *scenarios)
	if err != nil {
		log.Fatal(err)
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

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	stats, violations, err := scenario.RunMatrix(m, logf)
	if err != nil {
		log.Fatal(err)
	}

	for _, e := range m.Scenarios {
		st := stats[e.Name]
		verdict := "pass"
		if st.Invariant != "pass" {
			verdict = "FAIL"
		}
		fmt.Printf("%-16s %s  ops=%d errors=%d injected=%d shed=%d sso_shed=%d retried=%d\n",
			e.Name, verdict, st.TotalOps, st.TotalErrors, st.Injected, st.Shed, st.SSOShed, st.Retried)
	}

	if *out != "" {
		if err := scenario.WriteReport(*out, stats); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d scenario reports to %s\n", len(stats), *out)
	}

	if len(violations) > 0 {
		for _, v := range violations {
			log.Printf("INVARIANT VIOLATED: %s", v)
		}
		os.Exit(1)
	}
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
