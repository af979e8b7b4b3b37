// Command relpipe is the command-line front end of the library and of
// the solver service. It optimizes, evaluates, simulates, adapts and
// reports on interval mappings of pipelined real-time systems described
// by JSON instance files, and it drives a running service's async jobs
// and fleet controller.
//
// Usage:
//
//	relpipe optimize -instance inst.json [-period P] [-latency L] [-method auto] [-parallel 0]
//	        [-restarts 0] [-budget 0] [-search-seed 1] [-o sol.json]
//	relpipe evaluate -instance inst.json -solution sol.json
//	relpipe generate [-tasks 15] [-procs 10] [-seed 1] [-het] [-o inst.json]
//	relpipe simulate -instance inst.json [-period P] [-latency L] [-method auto]
//	        [-datasets 10000] [-seed 1] [-scale 1] [-reps 1] [-parallel 0]
//	relpipe adapt -instance inst.json [-period P] [-latency L] [-method auto] [-policy all]
//	        [-horizon 1000] [-replications 32] [-spares 2] [-sparecost 0]
//	        [-repair-latency 0] [-lifescale 1] [-restarts 2] [-budget 500]
//	        [-seed 1] [-parallel 0] [-trace]
//	relpipe frontier -instance inst.json [-method auto|exact|heuristic] [-floor 0]
//	        [-csv out.csv] [-parallel 0] [-restarts 0] [-budget 0] [-seed 1]
//	relpipe report -instance inst.json [-period P] [-latency L] [-method auto]
//	        [-unit 36] [-mission 8760] [-simulate 0] [-scale 1e5] [-seed 1] [-o report.md]
//	relpipe jobs [-addr http://localhost:8080] submit -kind optimize -request req.json
//	        [-client me] [-wait]
//	relpipe jobs [-addr URL] {status|watch|cancel} <job-id>
//	relpipe jobs [-addr URL] list [-client me]
//	relpipe fleet [-addr http://localhost:8080] register -file deployment.json
//	relpipe fleet [-addr URL] list
//	relpipe fleet [-addr URL] {status|rm} <deployment-id>
//	relpipe fleet [-addr URL] feed <deployment-id> [-beat P]... [-crash P]... [-failures N]...
//	relpipe fleet [-addr URL] watch <deployment-id> [-after SEQ]
//
// An instance file holds {"chain":[{"work":..,"out":..},...],
// "platform":{"procs":[{"speed":..,"failRate":..},...],"bandwidth":..,
// "linkFailRate":..,"maxReplicas":..}}. Every subcommand that reads one
// names the file in a decode error and rejects an invalid instance
// before it solves anything. optimize, simulate, adapt and report first
// optimize the instance under -period/-latency with -method (auto, dp,
// exact, ilp, heur-p, heur-l, best-heuristic or heuristic); simulate
// and adapt also inject data sets every -period when it is set. -o
// writes to a file instead of stdout.
//
// optimize prints the solution document. -restarts, -budget and
// -search-seed tune the heuristic search (0 = its defaults).
//
// simulate pushes data sets through the optimized mapping with
// transient-failure injection and compares the observed behaviour with
// the paper's closed forms (reliability Eq. 9, latency Eq. 5/7, period
// Eq. 6/8). -scale multiplies every failure rate, so that failures show
// in a short run. -reps > 1 pools that many Monte-Carlo replications,
// seeded deterministically from -seed.
//
// adapt simulates missions during which processors crash permanently
// (exponential arrival times) while a repair policy keeps the pipeline
// alive: degrading (none), swapping in spares, patching greedily, or
// re-optimizing with the warm-started search (remap, tuned by -restarts
// and -budget). -policy all compares every policy on identical missions,
// one table row each; -trace adds the event log of replication 0.
// -lifescale multiplies every processor failure rate to obtain its
// permanent-crash rate.
//
// frontier prints the Pareto-optimal trade-offs between reliability,
// period and latency, with ASCII renderings of two projections, and
// -csv writes the full frontier. Its -method exact enumerates every
// partition (homogeneous platforms within about 22 tasks), heuristic
// approximates the frontier with the search engine, and auto picks
// whichever applies; -seed seeds that search.
//
// report writes a markdown dependability report: the mapping, its
// evaluation, the periodic schedule, the frontier context, mission
// figures (-unit seconds per time unit, -mission hours) and, with
// -simulate N, a Monte-Carlo check of N data sets at rates ×-scale.
//
// jobs and fleet drive a service (see API.md, "Async jobs" and "Fleet
// controller"); -addr comes before the verb. jobs submit prints the
// accepted job's status, and with -wait streams progress and prints the
// result document; watch streams one line per progress event. fleet
// feed sends heartbeat, crash and failure-count telemetry, and fleet
// watch prints one line per controller decision until the deployment
// is removed or the server drains. A job that ends failed or cancelled
// exits 1.
//
// simulate's and adapt's -seed 0 aliases the default seed 1. -parallel
// never changes an answer, only the wall-clock time (0 = GOMAXPROCS,
// 1 = sequential). A malformed command line exits 2, and any other
// failure exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"relpipe"
)

// A command runs one subcommand on its arguments. It writes its answer
// to stdout and its progress and diagnostics to stderr.
type command func(args []string, stdout, stderr io.Writer) error

var commands = map[string]command{
	"optimize": cmdOptimize,
	"evaluate": cmdEvaluate,
	"generate": cmdGenerate,
	"simulate": cmdSimulate,
	"adapt":    cmdAdapt,
	"frontier": cmdFrontier,
	"report":   cmdReport,
	"jobs":     cmdJobs,
	"fleet":    cmdFleet,
}

const usage = `usage: relpipe <command> [flags]

commands:
  optimize   optimize an instance under period and latency bounds
  evaluate   evaluate a solution's mapping on an instance
  generate   draw a random instance as in the paper's experiments
  simulate   check an optimized mapping against Monte-Carlo runs
  adapt      compare repair policies over missions with processor crashes
  frontier   print the reliability/period/latency Pareto frontier
  report     write a markdown dependability report
  jobs       drive a solver service's async jobs
  fleet      drive a solver service's fleet controller

"relpipe <command> -h" lists the command's flags.
`

var (
	// errUsage is a malformed command line that has been explained
	// on stderr already.
	errUsage = errors.New("usage")
	// errReported is a failure whose output says all there is to say,
	// such as a job that ended failed.
	errReported = errors.New("reported")
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to their subcommand and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	err := commands[args[0]](args[1:], stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case !errors.Is(err, errReported):
		fmt.Fprintf(stderr, "relpipe %s: %v\n", args[0], err)
	}
	return 1
}

// newFlags returns the flag set of one subcommand, reporting on stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("relpipe "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. A parse error is errUsage: the flag
// package has printed it with the flag list.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// instanceFlags are the flags of the subcommands that optimize an
// instance before they act on the answer: optimize, simulate, adapt and
// report.
type instanceFlags struct {
	path   string
	bounds relpipe.Bounds
	method string
}

func addInstanceFlags(fs *flag.FlagSet) *instanceFlags {
	f := &instanceFlags{}
	fs.StringVar(&f.path, "instance", "", "instance JSON file (required)")
	fs.Float64Var(&f.bounds.Period, "period", 0, "period bound (0 = unconstrained)")
	fs.Float64Var(&f.bounds.Latency, "latency", 0, "latency bound (0 = unconstrained)")
	fs.StringVar(&f.method, "method", "auto", "optimization method: auto, dp, exact, ilp, heur-p, heur-l, best-heuristic or heuristic")
	return f
}

// load reads the instance and parses the method.
func (f *instanceFlags) load() (relpipe.Instance, relpipe.Method, error) {
	in, err := loadInstance(f.path)
	if err != nil {
		return in, relpipe.Auto, err
	}
	method, err := relpipe.ParseMethod(f.method)
	return in, method, err
}

// loadInstance reads the instance file at path, names the file in a
// decode error and validates the instance.
func loadInstance(path string) (relpipe.Instance, error) {
	var in relpipe.Instance
	if path == "" {
		return in, errors.New("-instance is required")
	}
	if err := readJSON(path, &in); err != nil {
		return in, err
	}
	return in, in.Validate()
}

// readJSON decodes the JSON file at path into v and names the file in a
// decode error.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeOutput hands write the file at path, or stdout for "" and "-",
// and returns the first error of writing or of closing the file.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" || path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON through writeOutput.
func writeJSON(path string, stdout io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeOutput(path, stdout, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}
