package report

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"relpipe"
	"relpipe/internal/frontier"
	"relpipe/internal/mttf"
	"relpipe/internal/sched"
	"relpipe/internal/sim"
)

// Options configures the report.
type Options struct {
	// Bounds and Method drive the optimization (see relpipe.Optimize).
	Bounds relpipe.Bounds
	Method relpipe.Method
	// SecondsPerUnit calibrates time units to wall-clock time (the
	// paper's §8 calibration is 36 s per unit; default 1).
	SecondsPerUnit float64
	// MissionHours is the mission duration for the dependability
	// section (default 10000 h).
	MissionHours float64
	// SimDataSets enables a Monte-Carlo validation run of that many
	// data sets (0 disables). SimRateScale multiplies the failure
	// rates so that failures are observable (default 1).
	SimDataSets  int
	SimRateScale float64
	// Seed drives the simulation.
	Seed uint64
}

// frontierPoints caps the frontier table.
const frontierPoints = 12

func (o Options) withDefaults() Options {
	if o.SecondsPerUnit <= 0 {
		o.SecondsPerUnit = 1
	}
	if o.MissionHours <= 0 {
		o.MissionHours = 10000
	}
	if o.SimRateScale <= 0 {
		o.SimRateScale = 1
	}
	return o
}

// errWriter keeps the first error of the writes through it and skips
// every write after that error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(b []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(b)
	e.err = err
	return n, err
}

// Generate writes the report for the instance to w and returns the
// first error of writing it.
func Generate(in relpipe.Instance, opts Options, w io.Writer) error {
	opts = opts.withDefaults()
	if err := in.Validate(); err != nil {
		return err
	}
	sol, err := relpipe.Optimize(in, opts.Bounds, opts.Method)
	if err != nil {
		return fmt.Errorf("report: optimization failed: %w", err)
	}

	ew := &errWriter{w: w}
	p := func(format string, args ...interface{}) {
		fmt.Fprintf(ew, format, args...)
	}
	p("# Dependability report\n\n")

	p("## Instance\n\n")
	p("%d tasks, total work %.4g; %s\n\n", len(in.Chain), in.Chain.TotalWork(), in.Platform)
	p("| task | work | output |\n|---|---|---|\n")
	for i, t := range in.Chain {
		p("| %d | %.4g | %.4g |\n", i, t.Work, t.Out)
	}
	p("\n")

	p("## Mapping (%s)\n\n", sol.Method)
	p("`%s`\n\n", sol.Mapping)
	p("| metric | value | bound |\n|---|---|---|\n")
	bound := func(v float64) string {
		if v <= 0 {
			return "—"
		}
		return fmt.Sprintf("%.6g", v)
	}
	p("| failure probability per data set | %.6g | |\n", sol.Eval.FailProb)
	p("| worst-case period | %.6g | %s |\n", sol.Eval.WorstPeriod, bound(opts.Bounds.Period))
	p("| worst-case latency | %.6g | %s |\n", sol.Eval.WorstLatency, bound(opts.Bounds.Latency))
	p("| expected period | %.6g | |\n", sol.Eval.ExpPeriod)
	p("| expected latency | %.6g | |\n", sol.Eval.ExpLatency)
	p("\n")

	period := opts.Bounds.Period
	if period <= 0 {
		period = sol.Eval.WorstPeriod
	}
	if table, err := sched.Build(in.Chain, in.Platform, sol.Mapping, period); err == nil {
		p("## Periodic schedule (P = %.4g)\n\n```\n%s\n```\n\n", period, table)
		util := table.Utilization()
		ids := make([]int, 0, len(util))
		for u := range util {
			ids = append(ids, u)
		}
		sort.Ints(ids)
		p("Utilization: ")
		for i, u := range ids {
			if i > 0 {
				p(", ")
			}
			p("P%d %.0f%%", u, 100*util[u])
		}
		p("\n\n")
	}

	if in.Platform.Homogeneous() && len(in.Chain) <= 22 {
		if pts, err := frontier.Compute(context.TODO(), in.Chain, in.Platform, 1, nil); err == nil {
			proj := frontier.PeriodReliability(pts)
			if len(proj) > frontierPoints {
				proj = proj[:frontierPoints]
			}
			p("## Reliability/period frontier (latency unconstrained)\n\n")
			p("| period ≥ | best failure probability | intervals |\n|---|---|---|\n")
			for _, pt := range proj {
				p("| %.6g | %.3g | %d |\n", pt.Period, pt.FailProb, len(pt.Ends))
			}
			p("\n")
		}
	}

	p("## Mission analysis\n\n")
	periodSeconds := period * opts.SecondsPerUnit
	missionSeconds := opts.MissionHours * 3600
	mt, err := mttf.MTTF(sol.Eval.FailProb, periodSeconds)
	if err != nil {
		return err
	}
	surv, err := mttf.MissionSurvival(sol.Eval.FailProb, periodSeconds, missionSeconds)
	if err != nil {
		return err
	}
	rate, err := mttf.FailureRatePerHour(sol.Eval.FailProb, periodSeconds)
	if err != nil {
		return err
	}
	p("With %.4g s per time unit (one data set every %.4g s):\n\n", opts.SecondsPerUnit, periodSeconds)
	if math.IsInf(mt, 1) {
		p("- MTTF: ∞ (no failure mode in the model)\n")
	} else {
		p("- MTTF: %.4g hours (%.4g years)\n", mt/3600, mt/(365.25*24*3600))
	}
	p("- failure rate: %.4g per hour\n", rate)
	p("- P(zero lost data sets over %.4g h): %.9f\n\n", opts.MissionHours, surv)

	if opts.SimDataSets > 0 {
		simIn := in
		simIn.Platform.Procs = nil
		for _, pr := range in.Platform.Procs {
			pr.FailRate *= opts.SimRateScale
			simIn.Platform.Procs = append(simIn.Platform.Procs, pr)
		}
		simIn.Platform.LinkFailRate *= opts.SimRateScale
		ev, err := relpipe.Evaluate(simIn, sol.Mapping)
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{
			Chain: simIn.Chain, Platform: simIn.Platform, Mapping: sol.Mapping,
			Period: period, DataSets: opts.SimDataSets, Seed: opts.Seed,
			InjectFailures: true, Routing: sim.TwoHop,
			WarmUp: opts.SimDataSets / 10,
		})
		if err != nil {
			return err
		}
		sigma := math.Sqrt(ev.FailProb * (1 - ev.FailProb) / float64(opts.SimDataSets))
		p("## Monte-Carlo validation (rates ×%.4g, %d data sets)\n\n", opts.SimRateScale, opts.SimDataSets)
		p("| quantity | analytic | simulated |\n|---|---|---|\n")
		p("| failure probability | %.6g | %.6g (±%.2g at 95%%) |\n", ev.FailProb, res.FailureRate(), 2*sigma)
		p("| mean latency | %.6g | %.6g |\n", ev.ExpLatency, res.MeanLatency())
		p("| steady period | ≥ %.6g | %.6g |\n", ev.WorstPeriod, res.SteadyPeriod)
		p("\n")
	}
	return ew.err
}
