package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"relpipe"
	"relpipe/internal/fleet"
)

// parseAddr parses the -addr flag in front of a jobs or fleet verb and
// returns the service URL, the verb and the verb's arguments.
func parseAddr(name, verbs string, args []string, stderr io.Writer) (addr, verb string, rest []string, err error) {
	fs := newFlags(name, stderr)
	a := fs.String("addr", "http://localhost:8080", "service base URL")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: relpipe %s [-addr URL] {%s} ...\n", name, verbs)
		fs.PrintDefaults()
	}
	if err := parse(fs, args); err != nil {
		return "", "", nil, err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return "", "", nil, errReported
	}
	return *a, fs.Arg(0), fs.Args()[1:], nil
}

// readBody reads the document at path, or standard input for "-".
func readBody(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// oneID returns the one positional argument of a verb, named what.
func oneID(what string, args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("want one <%s>", what)
	}
	return args[0], nil
}

func cmdJobs(args []string, stdout, stderr io.Writer) error {
	addr, verb, rest, err := parseAddr("jobs", "submit|status|watch|cancel|list", args, stderr)
	if err != nil {
		return err
	}
	c := &relpipe.JobsClient{BaseURL: addr}
	ctx := context.Background()
	switch verb {
	case "submit":
		err = jobsSubmit(ctx, c, rest, stdout, stderr)
	case "status", "watch", "cancel":
		err = jobsByID(ctx, c, verb, rest, stdout)
	case "list":
		fs := newFlags("jobs list", stderr)
		client := fs.String("client", "", "filter by client name")
		if err := parse(fs, rest); err != nil {
			return err
		}
		var sts []relpipe.JobStatus
		if sts, err = c.List(ctx, *client); err == nil {
			for _, st := range sts {
				printStatus(stdout, st)
			}
		}
	default:
		return fmt.Errorf("unknown command %q", verb)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	return nil
}

func jobsSubmit(ctx context.Context, c *relpipe.JobsClient, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("jobs submit", stderr)
	kind := fs.String("kind", "", "job kind: optimize, evaluate, minperiod, frontier, mincost, simulate, adapt, batch")
	reqPath := fs.String("request", "", "request document file (- for stdin)")
	client := fs.String("client", "", "client name for per-client caps and list filtering")
	wait := fs.Bool("wait", false, "stream progress and print the result document")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *kind == "" || *reqPath == "" {
		return fmt.Errorf("-kind and -request are required")
	}
	body, err := readBody(*reqPath)
	if err != nil {
		return err
	}
	st, err := c.Submit(ctx, *kind, json.RawMessage(body), *client)
	if err != nil {
		return err
	}
	printStatus(stdout, st)
	if *wait && !st.State.Terminal() {
		if st, err = c.Watch(ctx, st.ID, func(ev relpipe.JobStatus) { printStatus(stdout, ev) }); err != nil {
			return err
		}
	}
	return finish(stdout, st)
}

// jobsByID runs the status, watch and cancel verbs.
func jobsByID(ctx context.Context, c *relpipe.JobsClient, verb string, args []string, stdout io.Writer) error {
	id, err := oneID("job-id", args)
	if err != nil {
		return err
	}
	switch verb {
	case "status":
		st, err := c.Status(ctx, id)
		if err != nil {
			return err
		}
		b, _ := json.MarshalIndent(st, "", "  ")
		fmt.Fprintln(stdout, string(b))
		if st.State.Terminal() && st.State != relpipe.JobSucceeded {
			return errReported
		}
		return nil
	case "watch":
		st, err := c.Watch(ctx, id, func(ev relpipe.JobStatus) { printStatus(stdout, ev) })
		if err != nil {
			return err
		}
		return finish(stdout, st)
	default:
		st, err := c.Cancel(ctx, id)
		if err == nil {
			printStatus(stdout, st)
		}
		return err
	}
}

// printStatus prints one compact status line.
func printStatus(w io.Writer, st relpipe.JobStatus) {
	line := fmt.Sprintf("%s  %-9s  %-9s", st.ID, st.Kind, st.State)
	if st.Progress.Total > 0 {
		line += fmt.Sprintf("  %d/%d", st.Progress.Done, st.Progress.Total)
	}
	if st.Cached {
		line += "  (cached)"
	}
	fmt.Fprintln(w, line)
}

// finish prints a terminal job's result document; a job that did not
// succeed is errReported.
func finish(w io.Writer, st relpipe.JobStatus) error {
	if len(st.Result) > 0 {
		fmt.Fprintln(w, string(st.Result))
	}
	if st.State == relpipe.JobSucceeded {
		return nil
	}
	return errReported
}

func cmdFleet(args []string, stdout, stderr io.Writer) error {
	addr, verb, rest, err := parseAddr("fleet", "register|list|status|feed|watch|rm", args, stderr)
	if err != nil {
		return err
	}
	c := &relpipe.FleetClient{BaseURL: addr}
	ctx := context.Background()
	switch verb {
	case "register":
		err = fleetRegister(ctx, c, rest, stdout, stderr)
	case "list":
		if len(rest) != 0 {
			return fmt.Errorf("list: takes no arguments")
		}
		var sts []relpipe.FleetDeployment
		if sts, err = c.List(ctx); err == nil {
			for _, st := range sts {
				printDeployment(stdout, st)
			}
		}
	case "status", "rm":
		err = fleetByID(ctx, c, verb, rest, stdout)
	case "feed":
		err = fleetFeed(ctx, c, rest, stdout, stderr)
	case "watch":
		err = fleetWatch(ctx, c, rest, stdout, stderr)
	default:
		return fmt.Errorf("unknown command %q", verb)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	return nil
}

func fleetRegister(ctx context.Context, c *relpipe.FleetClient, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("fleet register", stderr)
	file := fs.String("file", "", "FleetRegisterRequest document file (- for stdin)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	body, err := readBody(*file)
	if err != nil {
		return err
	}
	var req relpipe.FleetRegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	st, err := c.Register(ctx, req)
	if err != nil {
		return err
	}
	printDeployment(stdout, st)
	return nil
}

// fleetByID runs the status and rm verbs.
func fleetByID(ctx context.Context, c *relpipe.FleetClient, verb string, args []string, stdout io.Writer) error {
	id, err := oneID("deployment-id", args)
	if err != nil {
		return err
	}
	if verb == "rm" {
		st, err := c.Deregister(ctx, id)
		if err == nil {
			printDeployment(stdout, st)
		}
		return err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return err
	}
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Fprintln(stdout, string(b))
	return nil
}

// idFlags parses the flags after a deployment id, which comes first.
func idFlags(fs *flag.FlagSet, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("want <deployment-id> before the flags")
	}
	return args[0], parse(fs, args[1:])
}

// intList collects a repeatable processor flag.
type intList []int

func (p *intList) String() string { return fmt.Sprint([]int(*p)) }
func (p *intList) Set(s string) error {
	n, err := strconv.Atoi(s)
	*p = append(*p, n)
	return err
}

// floatList collects a repeatable observation flag.
type floatList []float64

func (v *floatList) String() string { return fmt.Sprint([]float64(*v)) }
func (v *floatList) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	*v = append(*v, f)
	return err
}

func fleetFeed(ctx context.Context, c *relpipe.FleetClient, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("fleet feed", stderr)
	var beats, crashes intList
	var failures floatList
	fs.Var(&beats, "beat", "heartbeat from processor P (repeatable)")
	fs.Var(&crashes, "crash", "crash report for processor P (repeatable)")
	fs.Var(&failures, "failures", "observed per-interval failure count (repeatable)")
	id, err := idFlags(fs, args)
	if err != nil {
		return err
	}
	var events []relpipe.FleetEvent
	for _, p := range beats {
		events = append(events, relpipe.FleetEvent{Type: fleet.EventHeartbeat, Proc: p})
	}
	for _, p := range crashes {
		events = append(events, relpipe.FleetEvent{Type: fleet.EventCrash, Proc: p})
	}
	for _, v := range failures {
		events = append(events, relpipe.FleetEvent{Type: fleet.EventFailures, Value: v})
	}
	if len(events) == 0 {
		return fmt.Errorf("no events (use -beat, -crash or -failures)")
	}
	n, err := c.Feed(ctx, id, events)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "accepted %d event(s)\n", n)
	return nil
}

func fleetWatch(ctx context.Context, c *relpipe.FleetClient, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("fleet watch", stderr)
	after := fs.Uint64("after", 0, "stream decisions with sequence number > SEQ")
	id, err := idFlags(fs, args)
	if err != nil {
		return err
	}
	err = c.Watch(ctx, id, *after,
		func(st relpipe.FleetDeployment) { printDeployment(stdout, st) },
		func(d relpipe.FleetDecision) { printDecision(stdout, d) })
	switch err {
	case relpipe.ErrFleetDeregistered:
		fmt.Fprintln(stdout, "deployment deregistered")
	case relpipe.ErrFleetShutdown:
		fmt.Fprintln(stdout, "server shutting down")
	default:
		return err
	}
	return nil
}

// printDeployment prints one compact deployment line.
func printDeployment(w io.Writer, st relpipe.FleetDeployment) {
	state := "healthy"
	switch {
	case st.Down:
		state = "down"
	case st.Degraded:
		state = "degraded"
	case st.Drifting:
		state = "drifting"
	}
	line := fmt.Sprintf("%s  %-8s  rel=%.6g floor=%g  remaps=%d adopted=%d suppressed=%d failed=%d",
		st.ID, state, st.Reliability, st.Floor,
		st.Remaps, st.RemapsAdopted, st.RemapsSuppressed, st.RemapsFailed)
	if len(st.DeadProcs) > 0 {
		line += fmt.Sprintf("  dead=%v", st.DeadProcs)
	}
	if st.BreakerOpen {
		line += "  BREAKER-OPEN"
	}
	fmt.Fprintln(w, line)
}

// printDecision prints one decision-log line.
func printDecision(w io.Writer, d relpipe.FleetDecision) {
	line := fmt.Sprintf("%6d  %s  %-16s", d.Seq, d.Time.Format(time.RFC3339), d.Kind)
	if d.Proc >= 0 {
		line += fmt.Sprintf("  proc=%d", d.Proc)
	}
	if d.Reason != "" {
		line += "  " + d.Reason
	}
	if d.Reliability != 0 {
		line += fmt.Sprintf("  rel=%.6g", d.Reliability)
	}
	fmt.Fprintln(w, line)
}
