package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"edn/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "edn:", err)
		os.Exit(1)
	}
}

// command is one subcommand. setup registers its flags and returns the
// action that runs once they parse; a profiled subcommand also takes
// -cpuprofile and -memprofile around that action.
type command struct {
	name     string
	setup    func(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error
	profiled bool
}

var commands = []command{
	{"describe", cmdDescribe, false},
	{"route", cmdRoute, false},
	{"cost", cmdCost, false},
	{"explore", cmdExplore, false},
	{"figures", cmdFigures, false},
	{"experiments", cmdExperiments, false},
	{"maspar", cmdMaspar, false},
	{"sim", cmdSim, false},
	{"latency", cmdLatency, true},
	{"faults", cmdFaults, false},
	{"lifetime", cmdLifetime, true},
	{"loop", cmdLoop, true},
	{"explain", cmdExplain, true},
	{"trace", cmdTrace, true},
	{"serve", cmdServe, false},
	{"bench", cmdBench, false},
}

// run dispatches args[0] to its subcommand, prefixing any error with
// the subcommand's name.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	names := make([]string, len(commands))
	for i, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			if err := c.run(args[1:], stdin, stdout); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			return nil
		}
		names[i] = c.name
	}
	return fmt.Errorf("usage: edn <command> [flags], where command is one of: %s", strings.Join(names, " "))
}

// run parses the subcommand's flags (usage goes to stdout) and runs its
// action, under the profiler when the subcommand has one.
func (c command) run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("edn "+c.name, flag.ContinueOnError)
	fs.SetOutput(stdout)
	var prof *cliutil.ProfileFlagSet
	if c.profiled {
		prof = cliutil.ProfileFlags(fs)
	}
	action := c.setup(fs, stdin, stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if prof != nil {
		return prof.Run(action)
	}
	return action()
}
