// Command benchmark is the repo's one repeatable benchmark of the Fig. 1
// stack: five named workloads, twelve end-to-end metrics, and a separate
// traced run that yields the per-layer numbers. Every layer is measured from
// outside the program; see README.md for the tables and how to reproduce.
//
// Usage:
//
//	go run ./benchmark run     [-seed 1] [-reps 5] [-workload NAME] [-out FILE]
//	go run ./benchmark trace   [-seed 1] [-workload NAME] [-out trace.json]
//	go run ./benchmark repeat  [-seed 1] [-reps 5] [-workload NAME]
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// The last form is the driver contract of BENCHMARK.json: `run` (--trace 0)
// or `trace` (--trace 1) of one workload, printed as one JSON object on the
// last line of standard output. Every form exits non-zero when a correctness
// check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"u1/benchmark/layers"
	"u1/benchmark/report"
	"u1/benchmark/spans"
	"u1/benchmark/spec"
	"u1/benchmark/workloads"
)

// processStart is the origin of setup_s in a repetition's own process.
var processStart = time.Now()

// defaultScratch holds sim-durable's journals and the fixtures' logs. It is
// relative to the working directory so a driver run stays inside its
// checkout.
const defaultScratch = ".bench_build"

// The traced run's sizes. The issue asks for fixture rounds of a second and
// more; at that length the fixtures alone take four minutes, so nobody would
// run them. A tenth of a second is 10^4 to 10^6 operations of all but the
// journal fixtures, and the median of five rounds repeats to a few percent.
const (
	fixtureTime   = 100 * time.Millisecond
	fixtureRounds = 5
	// staircaseOps is operations per connection and depth: 1400 reads and
	// 1600 writes behind each d3 median.
	staircaseOps = 4000
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: benchmark run|trace|repeat|compare|--workload NAME --seed N --seconds S --trace 0|1")
	}
	if strings.HasPrefix(args[0], "-") {
		return cmdDrive(args)
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "repeat":
		return cmdRepeat(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "rep":
		return cmdRep(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// common are the flags the measuring commands share.
type common struct {
	seed     int64
	reps     int
	workload string
	scratch  string
}

// register declares the shared flags; withReps adds -reps for the commands
// that repeat (the traced run makes one untraced and one traced repetition).
func (c *common) register(fs *flag.FlagSet, withReps bool) {
	fs.Int64Var(&c.seed, "seed", 1, "run seed: repetition i draws its inputs from seed*1000+i")
	if withReps {
		fs.IntVar(&c.reps, "reps", spec.Reps(spec.RunSeconds), "repetitions per workload, each in a fresh sub-process on its own seed")
	}
	fs.StringVar(&c.workload, "workload", "", "run only this workload (default: all five)")
	fs.StringVar(&c.scratch, "scratch", defaultScratch, "scratch directory for journals written while measuring")
}

func (c *common) names() ([]string, error) {
	if c.workload != "" {
		if _, ok := spec.WorkloadByName(c.workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", c.workload)
		}
		return []string{c.workload}, nil
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return names, nil
}

// bench builds the orchestrator for the flags, with repetitions in fresh
// sub-processes of this binary.
func (c *common) bench() (*bench, error) {
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &bench{
		seed: c.seed, scale: 1, scratch: c.scratch, rep: subprocessRep(exe),
		fixtures:     layers.Config{MinTime: fixtureTime, Rounds: fixtureRounds, Dir: c.scratch},
		staircaseOps: staircaseOps,
	}, nil
}

// subprocessRep runs one repetition as `<exe> rep …` and decodes the JSON
// result it prints. The call returns only after the child has exited.
func subprocessRep(exe string) repFunc {
	return func(o workloads.Options, spansPath string) (*workloads.Result, error) {
		args := []string{"rep", "-workload", o.Workload, "-seed", fmt.Sprint(o.Seed),
			"-scale", fmt.Sprint(o.Scale), "-scratch", o.Dir}
		if o.Traced {
			args = append(args, "-traced")
		}
		if spansPath != "" {
			args = append(args, "-spans", spansPath)
		}
		// Flush what earlier repetitions left dirty (journals written and
		// deleted), so this one's fsyncs do not queue behind their writeback.
		syscall.Sync()
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("repetition of %s: %w", o.Workload, err)
		}
		var r workloads.Result
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("repetition of %s printed no result: %w", o.Workload, err)
		}
		return &r, nil
	}
}

// cmdRep is the sub-process side of a repetition: run it, print the result
// as one line of JSON.
func cmdRep(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	var o workloads.Options
	var spansPath string
	fs.StringVar(&o.Workload, "workload", "", "")
	fs.Int64Var(&o.Seed, "seed", 1, "")
	fs.Float64Var(&o.Scale, "scale", 1, "")
	fs.StringVar(&o.Dir, "scratch", defaultScratch, "")
	fs.BoolVar(&o.Traced, "traced", false, "")
	fs.StringVar(&spansPath, "spans", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.Start = processStart
	if spansPath != "" {
		o.Spans = spans.NewRecorder()
	}
	r, err := workloads.Run(o)
	if err != nil {
		return err
	}
	if spansPath != "" {
		if err := o.Spans.WriteJSON(spansPath); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var c common
	c.register(fs, true)
	out := fs.String("out", "", "write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := c.bench()
	if err != nil {
		return err
	}
	names, err := c.names()
	if err != nil {
		return err
	}
	rep, err := b.runSet(names, c.reps)
	if err != nil {
		return err
	}
	rep.Print(os.Stdout)
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", *out)
	}
	return verdict(rep)
}

// verdict turns failed correctness checks into a non-zero exit.
func verdict(rep *report.Report) error {
	var failed []string
	for _, w := range rep.Workloads {
		if !w.Correct {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

func cmdRepeat(args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	var c common
	c.register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := c.bench()
	if err != nil {
		return err
	}
	names, err := c.names()
	if err != nil {
		return err
	}
	var sets [2]*report.Report
	for i := range sets {
		fmt.Printf("set %d of 2: %d repetitions of %s\n", i+1, c.reps, strings.Join(names, ", "))
		if sets[i], err = b.runSet(names, c.reps); err != nil {
			return err
		}
		if err := verdict(sets[i]); err != nil {
			sets[i].Print(os.Stdout)
			return err
		}
	}
	return printRepeat(os.Stdout, sets[0], sets[1])
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare A.json B.json")
	}
	a, err := report.Read(args[0])
	if err != nil {
		return err
	}
	b, err := report.Read(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (commit %s, dirty=%v)\nB: %s (commit %s, dirty=%v)\nratios are B/A\n\n",
		args[0], a.Env.Commit, a.Env.Dirty, args[1], b.Env.Commit, b.Env.Dirty)
	rows, warnings := report.Compare(a, b)
	report.PrintRows(os.Stdout, rows, warnings)
	for _, r := range rows {
		if r.Verdict == report.Worse {
			return errors.New("B is worse than A beyond a metric's bound")
		}
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var c common
	c.register(fs, false)
	out := fs.String("out", "trace.json", "write the spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := c.bench()
	if err != nil {
		return err
	}
	names, err := c.names()
	if err != nil {
		return err
	}
	tr, err := b.trace(names, filepath.Join(c.scratch, "spans"))
	if err != nil {
		return err
	}
	tr.print(os.Stdout)
	if err := tr.writeSpans(*out); err != nil {
		return err
	}
	fmt.Printf("\nspans written to %s\n", *out)
	if !tr.correct() {
		return errors.New("a correctness check failed in the traced run")
	}
	return nil
}

// cmdDrive implements the driver contract of BENCHMARK.json.
func cmdDrive(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c common
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	seconds := fs.Int("seconds", spec.RunSeconds, "how long to measure: sets the number of repetitions (spec.Reps)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := spec.WorkloadByName(c.workload); !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	c.scratch = defaultScratch
	b, err := c.bench()
	if err != nil {
		return err
	}
	var out *driverOut
	if *traced == 0 {
		out, err = b.driveEndToEnd(c.workload, *seconds)
	} else {
		out, err = b.drivePerLayer(c.workload)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}
