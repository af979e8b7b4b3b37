// Package relpipe maps pipelined real-time systems — linear chains of
// tasks processed in a pipelined fashion — onto distributed platforms,
// optimizing reliability under period (throughput) and latency
// (response-time) constraints. It reproduces "Reliability and performance
// optimization of pipelined real-time systems" (Benoit, Dufossé, Girault,
// Robert; ICPP 2010 / JPDC 2013): interval mappings with spatial
// replication, the reliability/latency/period evaluation of §4, the
// polynomial algorithms of §5, exact solvers for the NP-complete
// variants, the heuristics of §7, and a failure-injecting simulator.
//
// Quick start:
//
//	inst := relpipe.Instance{
//	    Chain:    relpipe.Chain{{Work: 10, Out: 2}, {Work: 8, Out: 0}},
//	    Platform: relpipe.HomogeneousPlatform(4, 1, 1e-8, 1, 1e-5, 3),
//	}
//	sol, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 12}, relpipe.Auto)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// paper-to-package map.
package relpipe

import (
	"errors"
	"fmt"

	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/frontier"
	"relpipe/internal/heur"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/mttf"
	"relpipe/internal/multichain"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
	"relpipe/internal/rng"
	"relpipe/internal/sched"
	"relpipe/internal/sim"
)

// Core model types.
type (
	// Task is one pipeline stage: Work units of computation producing
	// Out units of output data (the last task has Out = 0).
	Task = chain.Task
	// Chain is the application: a linear chain of tasks.
	Chain = chain.Chain
	// Processor describes one computing resource (speed, failure rate).
	Processor = platform.Processor
	// Platform is the hardware target: processors, link bandwidth and
	// failure rate, and the replication bound K.
	Platform = platform.Platform
	// Interval is a run of consecutive tasks mapped together.
	Interval = interval.Interval
	// Partition divides the chain into intervals.
	Partition = interval.Partition
	// Mapping assigns every interval to a set of replica processors.
	Mapping = mapping.Mapping
	// Eval carries every §4 objective of a mapping: reliability,
	// expected/worst-case latency and period.
	Eval = mapping.Eval
	// SimConfig configures a failure-injection simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a simulation run.
	SimResult = sim.Result
	// SimTrace records the operations of a simulation run, on the same
	// engine and with the same result as an untraced run, for Gantt
	// rendering and utilization analysis (attach to SimConfig.Trace).
	SimTrace = sim.Trace
	// FrontierPoint is one Pareto-optimal (period, latency, reliability)
	// trade-off.
	FrontierPoint = frontier.Point
	// Schedule is the closed-form periodic timetable of a mapping.
	Schedule = sched.Table
	// CostSolution is a cost-minimal mapping (see MinimizeCostWith).
	CostSolution = cost.Solution
	// SharedApp is one application competing for a shared platform
	// (see OptimizeShared).
	SharedApp = multichain.App
	// SharedResult is the joint mapping of several applications.
	SharedResult = multichain.Result
)

// Simulation routing modes.
const (
	// SimOneHop charges each stage boundary one hop (matches the
	// latency/period formulas).
	SimOneHop = sim.OneHop
	// SimTwoHop charges replica→router and router→replica hops
	// (matches the reliability formula, Eq. 9).
	SimTwoHop = sim.TwoHop
)

// HeuristicTables holds the partition tables of the §7 heuristics for
// one instance, each built at most once, plus a memo of the search
// seeds built over them (one per interval count, orientation and
// period-bound cell on which the §7.2 allocation cannot change). The
// builds and the memo are internally synchronized, so one value is safe
// to share across concurrent solves of that instance; Bytes grows as
// the tables are built and the memo fills.
type HeuristicTables = heur.Tables

// BuildHeuristicTables returns the heuristic tables of an instance with
// both partition tables already built, for sharing across solves via
// Options.Tables: only the Heuristic search method consults the
// provider, and only when it actually seeds a search; returning nil
// declines and the search uses private tables. Candidates, and hence
// solutions, are bit-identical with or without it.
func BuildHeuristicTables(in Instance) *HeuristicTables {
	return heur.BuildTables(in.Chain, in.Platform)
}

// Simulate runs the discrete-event pipeline simulator.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// SimBatchResult aggregates the replications of one SimulateBatch call.
type SimBatchResult = sim.BatchResult

// SimulateBatch runs independent Monte-Carlo replications of the
// simulation — each seeded deterministically from cfg.Seed — across
// o.Parallelism workers and returns the per-replication results in
// order. The batch is bit-identical for every parallelism degree.
func SimulateBatch(cfg SimConfig, replications int, o Options) (SimBatchResult, error) {
	return sim.RunBatch(o.Context, cfg, replications, o.Parallelism, o.Progress)
}

// HomogeneousPlatform builds a platform of p identical processors with
// the given speed, processor failure rate, link bandwidth, link failure
// rate, and replication bound.
func HomogeneousPlatform(p int, speed, failRate, bandwidth, linkFailRate float64, maxReplicas int) Platform {
	return platform.Homogeneous(p, speed, failRate, bandwidth, linkFailRate, maxReplicas)
}

// RandomChain generates a chain of n tasks with works in [wMin, wMax] and
// output sizes in [oMin, oMax], deterministically from the seed.
func RandomChain(seed uint64, n int, wMin, wMax, oMin, oMax float64) Chain {
	return chain.Random(rng.New(seed), n, wMin, wMax, oMin, oMax)
}

// FrontierWith enumerates the Pareto-optimal (period, latency,
// reliability) trade-offs of the instance (homogeneous platforms). The
// partition enumeration shards across o.Parallelism workers and the
// dominance filter (frontier.Front) runs on one, returning a
// bit-identical frontier for every degree. Like the Exact method of
// Optimize it enumerates 2^{n-1} partitions, so it stops at 22 tasks.
func FrontierWith(in Instance, o Options) ([]FrontierPoint, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Chain) > maxExactTasks {
		return nil, fmt.Errorf("relpipe: exact frontier limited to %d tasks (2^{n-1} partitions); use FrontierHeuristic", maxExactTasks)
	}
	return frontier.Compute(o.Context, in.Chain, in.Platform, o.Parallelism, progress.Func(o.Progress))
}

// FrontierAuto routes between the exact frontier sweep and its search
// approximation with the same policy Auto uses for Optimize: exact on
// homogeneous platforms within the enumeration ceiling, heuristic
// beyond it (large chains, heterogeneous platforms).
func FrontierAuto(in Instance, o Options) ([]FrontierPoint, error) {
	if in.Platform.Homogeneous() && len(in.Chain) <= maxExactTasks {
		return FrontierWith(in, o)
	}
	return FrontierHeuristic(in, o)
}

// BuildSchedule constructs the closed-form periodic timetable of a
// mapping at the given injection period (≥ the mapping's worst-case
// period): the concrete schedule whose existence the real-time contract
// of §1 presumes.
func BuildSchedule(in Instance, m Mapping, period float64) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return sched.Build(in.Chain, in.Platform, m, period)
}

// OptimizeShared maps several independent applications onto one shared
// homogeneous platform (the Autosar situation of the paper's §1:
// multiple vehicle functions sharing the ECUs), partitioning the
// processors to maximize the joint reliability while every application
// meets its own period and latency bounds. It returns ErrInfeasible
// when the applications cannot all fit. Each application's curve
// enumerates its 2^{n-1} partitions, so an application stops at 22
// tasks.
func OptimizeShared(apps []SharedApp, pl Platform) (SharedResult, error) {
	for i, app := range apps {
		if len(app.Chain) > maxExactTasks {
			return SharedResult{}, fmt.Errorf("relpipe: shared application %d has %d tasks; the exact shared-platform solver is limited to %d (2^{n-1} partitions)", i, len(app.Chain), maxExactTasks)
		}
	}
	res, err := multichain.Map(apps, pl)
	if errors.Is(err, multichain.ErrInfeasible) {
		return res, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return res, err
}

// MTTF returns the mean time to the first failed data set of a mapping
// with the given per-data-set failure probability, processing one data
// set per period.
func MTTF(failProb, period float64) (float64, error) { return mttf.MTTF(failProb, period) }

// MissionSurvival returns the probability that every data set of a
// mission of the given duration is processed correctly.
func MissionSurvival(failProb, period, mission float64) (float64, error) {
	return mttf.MissionSurvival(failProb, period, mission)
}
