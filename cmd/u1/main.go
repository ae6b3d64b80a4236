// Command u1 is the one entry point to the U1 back-end reproduction:
//
//	u1 sim      run the population on virtual time: stream logfiles (-out DIR),
//	            print the paper-vs-measured table (-report), or only run
//	u1 analyze  reproduce the paper's figures and tables (-trace DIR or a fresh run)
//	u1 chaos    run the scenario catalog and write a u1-chaos/1 report
//	u1 serve    run the back-end over real TCP behind the gateway
//	u1 cli      interactive desktop client for `u1 serve`
//
// sim, analyze and serve share the cluster flags (server.Config); sim and
// analyze also share the population flags (workload.Config). `u1 <command>
// -h` lists a command's flags with their defaults.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

var commands = map[string]func(args []string, stdout io.Writer) error{
	"sim":     runSim,
	"analyze": runAnalyze,
	"chaos":   runChaos,
	"serve":   runServe,
	"cli":     runCLI,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "u1:", err)
		os.Exit(1)
	}
}

// run dispatches one command line (without the program name). A -h request
// is not an error.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && commands[args[0]] != nil {
		err := commands[args[0]](args[1:], stdout)
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	fmt.Fprintln(stdout, "usage: u1 sim|analyze|chaos|serve|cli [flags]   (u1 <command> -h lists its flags)")
	if len(args) == 0 {
		return errors.New("no command given")
	}
	if args[0] == "-h" || args[0] == "-help" {
		return nil
	}
	return fmt.Errorf("unknown command %q", args[0])
}

// newFlagSet is a command's flag set: errors come back from Parse instead of
// exiting, so run stays testable.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("u1 "+name, flag.ContinueOnError)
}
