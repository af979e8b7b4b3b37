package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/frontier"
	"relpipe/internal/platform"
	"relpipe/internal/report"
	"relpipe/internal/rng"
	"relpipe/internal/textplot"
)

func cmdOptimize(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("optimize", stderr)
	inf := addInstanceFlags(fs)
	parallel := fs.Int("parallel", 0, "solver parallelism (0 = GOMAXPROCS, 1 = sequential; the answer is identical for any value)")
	restarts := fs.Int("restarts", 0, "heuristic-search portfolio size (0 = default 8)")
	budget := fs.Int("budget", 0, "heuristic-search iterations per restart (0 = default, scaled with n)")
	searchSeed := fs.Uint64("search-seed", 1, "heuristic-search rng seed")
	out := fs.String("o", "-", "output file (- for stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}
	in, method, err := inf.load()
	if err != nil {
		return err
	}
	sol, err := relpipe.OptimizeWith(in, inf.bounds, method,
		relpipe.Options{Parallelism: *parallel, Restarts: *restarts, Budget: *budget, Seed: *searchSeed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "method=%s intervals=%d failure=%.6g WL=%.6g WP=%.6g\n",
		sol.Method, len(sol.Mapping.Parts), sol.Eval.FailProb, sol.Eval.WorstLatency, sol.Eval.WorstPeriod)
	return writeJSON(*out, stdout, sol)
}

func cmdEvaluate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("evaluate", stderr)
	instPath := fs.String("instance", "", "instance JSON file (required)")
	solPath := fs.String("solution", "", "solution JSON file (required)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *instPath == "" || *solPath == "" {
		return fmt.Errorf("-instance and -solution are required")
	}
	in, err := loadInstance(*instPath)
	if err != nil {
		return err
	}
	var sol relpipe.Solution
	if err := readJSON(*solPath, &sol); err != nil {
		return err
	}
	ev, err := relpipe.Evaluate(in, sol.Mapping)
	if err != nil {
		return err
	}
	return writeJSON("-", stdout, ev)
}

func cmdGenerate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("generate", stderr)
	tasks := fs.Int("tasks", 15, "number of tasks")
	procs := fs.Int("procs", 10, "number of processors")
	seed := fs.Uint64("seed", 1, "random seed")
	het := fs.Bool("het", false, "heterogeneous platform (speeds in [1,100])")
	out := fs.String("o", "-", "output file (- for stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}
	r := rng.New(*seed)
	in := relpipe.Instance{Chain: chain.PaperRandom(r, *tasks)}
	if *het {
		in.Platform = platform.PaperHeterogeneous(r, *procs)
	} else {
		in.Platform = platform.PaperHomogeneous(*procs)
	}
	return writeJSON(*out, stdout, in)
}

func cmdSimulate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("simulate", stderr)
	inf := addInstanceFlags(fs)
	datasets := fs.Int("datasets", 10000, "number of data sets to simulate")
	seed := fs.Uint64("seed", 1, "simulation seed (0 aliases the default seed 1)")
	scale := fs.Float64("scale", 1, "failure-rate multiplier for observable failures")
	reps := fs.Int("reps", 1, "independent Monte-Carlo replications to pool")
	parallel := fs.Int("parallel", 0, "replication parallelism (0 = GOMAXPROCS, 1 = sequential; results are identical for any value)")
	if err := parse(fs, args); err != nil {
		return err
	}
	in, method, err := inf.load()
	if err != nil {
		return err
	}
	if *scale != 1 {
		for i := range in.Platform.Procs {
			in.Platform.Procs[i].FailRate *= *scale
		}
		in.Platform.LinkFailRate *= *scale
	}
	sol, err := relpipe.Optimize(in, inf.bounds, method)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mapping: %s\n", sol.Mapping)
	fmt.Fprintf(stdout, "analytic: failure=%.6g EL=%.6g WL=%.6g EP=%.6g WP=%.6g\n",
		sol.Eval.FailProb, sol.Eval.ExpLatency, sol.Eval.WorstLatency,
		sol.Eval.ExpPeriod, sol.Eval.WorstPeriod)

	injPeriod := inf.bounds.Period
	if injPeriod <= 0 {
		injPeriod = sol.Eval.WorstPeriod
	}
	cfg := relpipe.SimConfig{
		Chain: in.Chain, Platform: in.Platform, Mapping: sol.Mapping,
		Period: injPeriod, DataSets: *datasets, Seed: *seed,
		InjectFailures: true, Routing: relpipe.SimTwoHop,
		WarmUp: *datasets / 10,
	}
	p := sol.Eval.FailProb
	if *reps > 1 {
		batch, err := relpipe.SimulateBatch(cfg, *reps, relpipe.Options{Parallelism: *parallel})
		if err != nil {
			return err
		}
		sigma := math.Sqrt(p * (1 - p) / float64(batch.DataSets()))
		fmt.Fprintf(stdout, "simulated: reps=%d datasets=%d successes=%d failure=%.6g (±%.2g at 95%%)\n",
			*reps, batch.DataSets(), batch.Successes(), batch.FailureRate(), 2*sigma)
		fmt.Fprintf(stdout, "simulated: mean latency=%.6g max latency=%.6g steady period=%.6g\n",
			batch.MeanLatency(), batch.MaxLatency(), batch.MeanSteadyPeriod())
		return nil
	}
	res, err := relpipe.Simulate(cfg)
	if err != nil {
		return err
	}
	sigma := math.Sqrt(p * (1 - p) / float64(*datasets))
	fmt.Fprintf(stdout, "simulated: datasets=%d successes=%d failure=%.6g (±%.2g at 95%%)\n",
		res.DataSets, res.Successes, res.FailureRate(), 2*sigma)
	fmt.Fprintf(stdout, "simulated: mean latency=%.6g max latency=%.6g steady period=%.6g\n",
		res.MeanLatency(), res.MaxLatency(), res.SteadyPeriod)
	return nil
}

func cmdAdapt(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("adapt", stderr)
	inf := addInstanceFlags(fs)
	policyStr := fs.String("policy", "all", "repair policy: all, remap, spares, greedy or none")
	ao := relpipe.AdaptOptions{}
	fs.Float64Var(&ao.Horizon, "horizon", 1000, "mission length in time units")
	reps := fs.Int("replications", 32, "independent missions to average")
	fs.IntVar(&ao.Spares, "spares", 2, "spare pool size (policy spares)")
	fs.Float64Var(&ao.SpareCost, "sparecost", 0, "cost charged per consumed spare")
	fs.Float64Var(&ao.RepairLatency, "repair-latency", 0, "downtime charged per repair action")
	fs.Float64Var(&ao.LifeScale, "lifescale", 1, "crash-rate multiplier over the per-data-set failure rates")
	fs.IntVar(&ao.Restarts, "restarts", 2, "remap search restarts per repair")
	fs.IntVar(&ao.Budget, "budget", 500, "remap search iterations per restart")
	fs.Uint64Var(&ao.Seed, "seed", 1, "mission seed (0 aliases the default seed 1)")
	parallel := fs.Int("parallel", 0, "replication parallelism (0 = GOMAXPROCS, 1 = sequential; results are identical for any value)")
	trace := fs.Bool("trace", false, "print the event log of replication 0")
	if err := parse(fs, args); err != nil {
		return err
	}
	in, method, err := inf.load()
	if err != nil {
		return err
	}
	ao.Period, ao.Latency = inf.bounds.Period, inf.bounds.Latency
	policies := relpipe.AdaptPolicies()
	if *policyStr != "all" {
		p, err := relpipe.ParseAdaptPolicy(*policyStr)
		if err != nil {
			return err
		}
		policies = []relpipe.AdaptPolicy{p}
	}

	sol, err := relpipe.Optimize(in, inf.bounds, method)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "static mapping (%s): %s\n", sol.Method, sol.Mapping)
	fmt.Fprintf(stdout, "static eval: failure=%.6g WL=%.6g WP=%.6g\n",
		sol.Eval.FailProb, sol.Eval.WorstLatency, sol.Eval.WorstPeriod)
	fmt.Fprintf(stdout, "mission: horizon=%g lifescale=%g replications=%d seed=%d\n",
		ao.Horizon, ao.LifeScale, *reps, ao.Seed)

	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tmissionRel\tavailability\tttfv\tviolationRate\trepairs\trepairTime\tspares\tresidualCost")
	for _, policy := range policies {
		ao.Policy = policy
		batch, err := relpipe.AdaptBatch(in, sol.Mapping, ao, *reps, relpipe.Options{Parallelism: *parallel})
		if err != nil {
			return err
		}
		s := batch.Summarize()
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.3g\t%.3g\t%.4g\t%.3g\t%.4g\n",
			policy, s.MissionReliability, s.Availability, s.MeanTimeToFirstViolation,
			s.ViolationRate, s.MeanRepairs, s.MeanRepairTime, s.MeanSparesUsed, s.MeanResidualCost)
		if *trace && len(batch.Runs) > 0 {
			if err := tw.Flush(); err != nil {
				return err
			}
			printTrace(stdout, policy, batch.Runs[0])
		}
	}
	return tw.Flush()
}

// printTrace renders the event log of one replication.
func printTrace(out io.Writer, policy relpipe.AdaptPolicy, run relpipe.AdaptRun) {
	fmt.Fprintf(out, "trace (%s, replication 0, seed %d): %d crashes\n", policy, run.Seed, run.Metrics.Crashes)
	for _, ev := range run.Events {
		logRel := fmt.Sprintf("%.4g", ev.LogRel)
		if math.IsInf(ev.LogRel, -1) {
			logRel = "down"
		}
		iv := fmt.Sprintf("interval %d", ev.Interval)
		if ev.Interval < 0 {
			iv = "idle"
		}
		fmt.Fprintf(out, "  t=%-10.4g proc %-3d %-10s action=%-8s logRel=%s\n",
			ev.Time, ev.Proc, iv, ev.Action, logRel)
	}
}

func cmdFrontier(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("frontier", stderr)
	instPath := fs.String("instance", "", "instance JSON file (required)")
	method := fs.String("method", "auto", "frontier method: auto, exact (enumeration) or heuristic (search approximation)")
	floor := fs.Float64("floor", 0, "reliability floor for the period/latency projection")
	csvPath := fs.String("csv", "", "write the full frontier as CSV to this file")
	var opts relpipe.Options
	fs.IntVar(&opts.Parallelism, "parallel", 0, "sweep parallelism (0 = GOMAXPROCS, 1 = sequential; the frontier is identical for any value)")
	fs.IntVar(&opts.Restarts, "restarts", 0, "heuristic-search portfolio size (0 = default)")
	fs.IntVar(&opts.Budget, "budget", 0, "heuristic-search iterations per restart (0 = default)")
	fs.Uint64Var(&opts.Seed, "seed", 1, "heuristic-search rng seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	in, err := loadInstance(*instPath)
	if err != nil {
		return err
	}
	var pts []relpipe.FrontierPoint
	switch *method {
	case "auto":
		// One routing policy for the whole stack: the facade's.
		pts, err = relpipe.FrontierAuto(in, opts)
	case "exact":
		pts, err = relpipe.FrontierWith(in, opts)
	case "heuristic":
		pts, err = relpipe.FrontierHeuristic(in, opts)
	default:
		return fmt.Errorf("unknown method %q (want auto, exact or heuristic)", *method)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d Pareto-optimal trade-offs (method %s)\n", len(pts), *method)

	if *csvPath != "" {
		if err := writeOutput(*csvPath, stdout, func(w io.Writer) error { return frontier.WriteCSV(pts, w) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}

	toSeries := func(ps []frontier.Point, key func(frontier.Point) float64) textplot.Series {
		s := textplot.Series{Label: "frontier"}
		for _, p := range ps {
			s.X = append(s.X, key(p))
			s.Y = append(s.Y, p.FailProb)
		}
		return s
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, textplot.Render(
		[]textplot.Series{toSeries(frontier.PeriodReliability(pts), func(p frontier.Point) float64 { return p.Period })},
		textplot.Options{Title: "failure probability vs period (latency unconstrained)",
			XLabel: "period", YLabel: "failure probability", YLog: true, Width: 70, Height: 16}))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, textplot.Render(
		[]textplot.Series{toSeries(frontier.LatencyReliability(pts), func(p frontier.Point) float64 { return p.Latency })},
		textplot.Options{Title: "failure probability vs latency (period unconstrained)",
			XLabel: "latency", YLabel: "failure probability", YLog: true, Width: 70, Height: 16}))

	minLogRel := math.Inf(-1)
	if *floor > 0 {
		minLogRel = math.Log(*floor)
	}
	pl := frontier.PeriodLatency(pts, minLogRel)
	fmt.Fprintf(stdout, "\nperiod/latency staircase (reliability ≥ %v): %d points\n", *floor, len(pl))
	for _, p := range pl {
		fmt.Fprintf(stdout, "  P=%-10.4g L=%-10.4g fail=%.3g intervals=%d\n",
			p.Period, p.Latency, p.FailProb, len(p.Ends))
	}
	return nil
}

func cmdReport(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("report", stderr)
	inf := addInstanceFlags(fs)
	unit := fs.Float64("unit", 36, "seconds per time unit (paper calibration: 36)")
	mission := fs.Float64("mission", 8760, "mission duration in hours")
	simulate := fs.Int("simulate", 0, "Monte-Carlo data sets (0 = skip)")
	scale := fs.Float64("scale", 1e5, "failure-rate multiplier for the simulation")
	out := fs.String("o", "-", "output file (- for stdout)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	in, method, err := inf.load()
	if err != nil {
		return err
	}
	opts := report.Options{
		Bounds: inf.bounds, Method: method, SecondsPerUnit: *unit, MissionHours: *mission,
		SimDataSets: *simulate, SimRateScale: *scale, Seed: *seed,
	}
	return writeOutput(*out, stdout, func(w io.Writer) error { return report.Generate(in, opts, w) })
}
