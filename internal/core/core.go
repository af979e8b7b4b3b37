package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"relpipe/internal/alloc"
	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/dp"
	"relpipe/internal/exact"
	"relpipe/internal/frontier"
	"relpipe/internal/heur"
	"relpipe/internal/ilp"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/platform"
	"relpipe/internal/search"
)

// Options tunes how a solver executes. The zero value runs at
// GOMAXPROCS with no cancellation and the search defaults. Parallelism
// never changes a solver's answer: every parallel path shards its index
// space and reduces in deterministic order, so results are bit-identical
// to the sequential run for any degree (see internal/par). The search
// knobs (Restarts, Budget, Seed) select how much work the Heuristic
// method spends; for a fixed Seed its answer too is identical at every
// parallelism degree.
type Options struct {
	// Parallelism caps the worker goroutines of one solve: 0 means
	// GOMAXPROCS, 1 (or any negative value) forces sequential
	// execution. The exact (optimize and min-cost), DP, frontier and
	// search solvers honour it; the raw heuristics and ILP are already
	// sub-millisecond and run sequentially. Servers running many solves
	// concurrently should budget this so that workers × Parallelism ≈
	// GOMAXPROCS (internal/service does).
	Parallelism int
	// Context cancels a long solve mid-shard; nil means no cancellation.
	Context context.Context
	// Restarts is the Heuristic method's portfolio size (0 = default 8).
	Restarts int
	// Budget is the Heuristic method's per-restart iteration budget
	// (0 = default, scaled with the chain length).
	Budget int
	// Seed drives the Heuristic method's random choices; equal seeds
	// give bit-identical results at any parallelism.
	Seed uint64
	// Progress, when non-nil, receives (done, total) completion counts
	// from the long-running engines: heuristic-search restarts,
	// Monte-Carlo replications (relpipe.SimulateBatch, AdaptBatch) and
	// frontier sweep stages (relpipe.FrontierWith); the other Optimize
	// methods finish in one unit of work and report nothing. Reports
	// may come from parallel workers; the hook must be concurrency-safe
	// and never influences a result (see internal/progress). This is
	// the observability hook the async job service streams over SSE.
	Progress func(done, total int64)
	// Tables, when non-nil, supplies pre-built heuristic partition
	// tables (heur.BuildTables) for the instance about to be solved.
	// Only the Heuristic search method consults it, and only at the
	// moment it actually seeds a search — Auto runs that route to the
	// exact or DP solvers never invoke the provider, so nothing is
	// built in vain. The provider may return nil to decline (the
	// search then builds its own tables); when it does return tables
	// they must match the instance it was called with. The tables are
	// immutable and their seed memo is internally synchronized, so one
	// value is safe to share across concurrent solves of the same
	// instance: the service's table tier amortizes one build across the
	// requests of one instance through this hook. Candidates, and hence
	// solutions, are bit-identical with or without it.
	Tables func(Instance) *heur.Tables
}

// tables consults the optional Tables provider.
func (o Options) tables(in Instance) *heur.Tables {
	if o.Tables == nil {
		return nil
	}
	return o.Tables(in)
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// ErrInfeasible is returned when no mapping satisfies the bounds.
var ErrInfeasible = errors.New("core: no feasible mapping")

// Instance bundles an application chain with a target platform.
type Instance struct {
	Chain    chain.Chain       `json:"chain"`
	Platform platform.Platform `json:"platform"`
}

// Validate checks both halves of the instance.
func (in Instance) Validate() error {
	if err := in.Chain.Validate(); err != nil {
		return err
	}
	return in.Platform.Validate()
}

// Bounds carries the real-time constraints; zero (or negative) values are
// unconstrained. Feasibility uses worst-case metrics (on homogeneous
// platforms expected and worst-case coincide, §5).
type Bounds struct {
	Period  float64 `json:"period,omitempty"`
	Latency float64 `json:"latency,omitempty"`
}

// Method selects the optimization algorithm.
type Method int

const (
	// Auto picks the strongest applicable method: the exact solver on
	// homogeneous platforms of tractable size, the reliability DP when
	// only a period bound is given, the combined heuristics otherwise.
	Auto Method = iota
	// HeurP is the period-oriented heuristic of §7 (Algorithm 4 +
	// Algo-Alloc).
	HeurP
	// HeurL is the latency-oriented heuristic of §7 (Algorithm 3 +
	// Algo-Alloc).
	HeurL
	// BestHeuristic runs both heuristics and keeps the better result,
	// the selection rule of the paper's experiments.
	BestHeuristic
	// DP is Algorithm 1/2: optimal on homogeneous platforms without a
	// latency bound.
	DP
	// Exact enumerates partitions with optimal allocation: optimal on
	// homogeneous platforms up to ~22 tasks (the latency-bounded
	// problem is NP-complete, Theorem 3).
	Exact
	// ILP solves the §5.4 integer program by branch and bound
	// (homogeneous platforms).
	ILP
	// Heuristic is the large-n search engine (internal/search): §7
	// candidates refined by portfolio local search. Handles any
	// platform and any chain length; deterministic for a fixed seed at
	// every parallelism degree.
	Heuristic
)

var methodNames = map[Method]string{
	Auto: "auto", HeurP: "heur-p", HeurL: "heur-l", BestHeuristic: "best-heuristic",
	DP: "dp", Exact: "exact", ILP: "ilp", Heuristic: "heuristic",
}

// String returns the method's CLI name.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod converts a CLI name into a Method.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if strings.EqualFold(s, name) {
			return m, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown method %q", s)
}

// Solution is the output of Optimize.
type Solution struct {
	Method  string          `json:"method"`
	Mapping mapping.Mapping `json:"mapping"`
	Eval    mapping.Eval    `json:"eval"`
}

// MaxExactTasks bounds partition enumeration (2^{n-1} partitions): the
// ceiling above which Auto routes to the search engine. Exported so
// frontier routing (relpipe.FrontierAuto, cmd/frontier) shares the one
// constant.
const MaxExactTasks = 22

// Optimize computes a mapping of the instance maximizing reliability
// under the bounds, with the requested method. It returns ErrInfeasible
// (possibly wrapped) when no mapping fits. The answer is identical for
// every Options value with the same search knobs.
func Optimize(in Instance, b Bounds, m Method, o Options) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	if m == Auto {
		switch {
		case in.Platform.Homogeneous() && len(in.Chain) <= MaxExactTasks:
			m = Exact
		case in.Platform.Homogeneous() && b.Latency <= 0:
			m = DP
		default:
			// Heterogeneous, or latency-bounded beyond the exact
			// ceiling: the search engine (seeded from the §7
			// heuristics, never worse than its sampled seed pool).
			m = Heuristic
		}
	}
	// Stage-time the resolved method (observation only — the solver's
	// answer never depends on whether anyone is watching).
	defer obs.Stage(o.ctx(), "solve."+m.String(), time.Now(), 0, nil)
	return optimizeResolved(in, b, m, o)
}

// optimizeResolved dispatches an already-resolved (non-Auto) method.
func optimizeResolved(in Instance, b Bounds, m Method, o Options) (Solution, error) {
	wrap := func(mp mapping.Mapping, ev mapping.Eval, err error) (Solution, error) {
		if err != nil {
			if errors.Is(err, exact.ErrInfeasible) || errors.Is(err, dp.ErrInfeasible) ||
				errors.Is(err, ilp.ErrInfeasible) || errors.Is(err, alloc.ErrInfeasible) {
				return Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return Solution{}, err
		}
		return Solution{Method: m.String(), Mapping: mp, Eval: ev}, nil
	}
	switch m {
	case HeurP, HeurL, BestHeuristic:
		fn := heur.Best
		if m == HeurP {
			fn = heur.HeurP
		} else if m == HeurL {
			fn = heur.HeurL
		}
		res, ok, err := fn(in.Chain, in.Platform, heur.Options{Period: b.Period, Latency: b.Latency})
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return Solution{}, ErrInfeasible
		}
		return Solution{Method: m.String(), Mapping: res.M, Eval: res.Ev}, nil
	case DP:
		if b.Latency > 0 {
			return Solution{}, errors.New("core: DP ignores latency bounds (NP-complete, Theorem 3); use Exact or the heuristics")
		}
		return wrap(dp.OptimizeReliabilityPeriodPar(o.ctx(), in.Chain, in.Platform, b.Period, o.Parallelism))
	case Exact:
		if len(in.Chain) > MaxExactTasks {
			return Solution{}, fmt.Errorf("core: Exact limited to %d tasks (2^{n-1} partitions); use the heuristics", MaxExactTasks)
		}
		return wrap(exact.OptimalPar(o.ctx(), in.Chain, in.Platform, b.Period, b.Latency, o.Parallelism))
	case ILP:
		model, err := ilp.BuildPaper(in.Chain, in.Platform, b.Period, b.Latency)
		if err != nil {
			if errors.Is(err, ilp.ErrInfeasible) {
				return Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return Solution{}, err
		}
		return wrap(model.Solve(ilp.Options{}))
	case Heuristic:
		sopts := o.searchOptions()
		sopts.Tables = o.tables(in)
		sopts.Period, sopts.Latency = b.Period, b.Latency
		res, ok, err := search.Optimize(in.Chain, in.Platform, sopts)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return Solution{}, fmt.Errorf("%w: heuristic search found no mapping meeting the bounds", ErrInfeasible)
		}
		return Solution{Method: m.String(), Mapping: res.M, Eval: res.Ev}, nil
	default:
		return Solution{}, fmt.Errorf("core: unknown method %v", m)
	}
}

// searchOptions translates the execution budget into search knobs
// (bounds and objective parameters are filled in by each caller).
func (o Options) searchOptions() search.Options {
	return search.Options{
		Restarts: o.Restarts, Budget: o.Budget, Seed: o.Seed,
		Parallelism: o.Parallelism, Context: o.Context, Progress: o.Progress,
	}
}

// FrontierHeuristic approximates the Pareto frontier with the search
// engine (search.Frontier), for instances beyond the exact enumeration
// ceiling.
func FrontierHeuristic(in Instance, o Options) ([]frontier.Point, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return search.Frontier(in.Chain, in.Platform, o.searchOptions())
}

// searchFloor maps a log-reliability floor into the search convention
// (values >= 0 mean unconstrained there, because the zero Options
// value must mean "no floor"). A floor of exactly 0 — reliability 1,
// reachable on zero-failure-rate platforms — becomes the smallest
// negative float, which accepts exactly LogRel == 0: no float64
// log-reliability lies strictly between them, so the semantics are
// preserved bit for bit. A floor above 0 (reliability above 1) admits
// no mapping, as the DP and exact solvers answer too, so it is
// ErrInfeasible rather than a value the search would read as "no
// floor".
func searchFloor(minLogRel float64) (float64, error) {
	switch {
	case minLogRel > 0:
		return 0, fmt.Errorf("%w: reliability floor above 1", ErrInfeasible)
	case minLogRel == 0:
		return -math.SmallestNonzeroFloat64, nil
	}
	return minLogRel, nil
}

// Evaluate computes every §4 objective of a mapping on an instance.
func Evaluate(in Instance, m mapping.Mapping) (mapping.Eval, error) {
	if err := in.Validate(); err != nil {
		return mapping.Eval{}, err
	}
	return mapping.Evaluate(in.Chain, in.Platform, m)
}

// UnroutedFailProb computes the exact failure probability of the mapping
// *without* routing operations: every replica of an interval sends
// directly to every replica of the next (the Fig. 4 diagram, each
// boundary crossed once). The paper inserts routing operations to make
// the RBD serial-parallel and asks, as future work, whether they can be
// removed; for chains the answer is yes — a dynamic program over
// delivering replica subsets evaluates the general diagram exactly in
// O(m·4^K) (mapping.StageSystem), for at most mapping.MaxUnroutedReplicas
// replicas per interval.
func UnroutedFailProb(in Instance, m mapping.Mapping) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if err := m.Validate(in.Chain, in.Platform); err != nil {
		return 0, err
	}
	sys, err := mapping.UnroutedFromMapping(in.Chain, in.Platform, m)
	if err != nil {
		return 0, err
	}
	return sys.FailProb(), nil
}

// MinPeriodMethod returns the mapping minimizing the period subject
// to a minimum log-reliability (use math.Inf(-1) for unconstrained), the
// converse problem of §5.2. The method picks the solver: DP (the exact
// §5.2 binary search, homogeneous only), Heuristic (the search engine,
// any platform), or Auto (DP when the platform is homogeneous, the
// search otherwise).
func MinPeriodMethod(in Instance, minLogRel float64, m Method, o Options) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	if m == Auto {
		if in.Platform.Homogeneous() {
			m = DP
		} else {
			m = Heuristic
		}
	}
	defer obs.Stage(o.ctx(), "minperiod."+m.String(), time.Now(), 0, nil)
	switch m {
	case DP:
		mp, ev, err := dp.MinPeriodForReliabilityPar(o.ctx(), in.Chain, in.Platform, minLogRel, o.Parallelism)
		if err != nil {
			if errors.Is(err, dp.ErrInfeasible) {
				return Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return Solution{}, err
		}
		return Solution{Method: "min-period", Mapping: mp, Eval: ev}, nil
	case Heuristic:
		floor, err := searchFloor(minLogRel)
		if err != nil {
			return Solution{}, err
		}
		sopts := o.searchOptions()
		sopts.Tables = o.tables(in)
		sopts.MinLogRel = floor
		res, ok, err := search.MinimizePeriod(in.Chain, in.Platform, sopts)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return Solution{}, fmt.Errorf("%w: heuristic search found no mapping meeting the reliability floor", ErrInfeasible)
		}
		return Solution{Method: "min-period-heuristic", Mapping: res.M, Eval: res.Ev}, nil
	default:
		return Solution{}, fmt.Errorf("core: min-period supports methods auto, dp and heuristic, not %v", m)
	}
}

// MinimizeCost returns the cheapest mapping meeting a
// log-reliability floor and the bounds. Method Exact runs the
// enumerative solver of internal/cost (homogeneous platforms within
// the partition-enumeration ceiling); Heuristic runs the search engine
// (any platform, any size); Auto picks Exact when it applies and the
// search otherwise.
func MinimizeCost(in Instance, costs []float64, minLogRel float64, b Bounds, m Method, o Options) (cost.Solution, error) {
	if err := in.Validate(); err != nil {
		return cost.Solution{}, err
	}
	if m == Auto {
		if in.Platform.Homogeneous() && len(in.Chain) <= MaxExactTasks {
			m = Exact
		} else {
			m = Heuristic
		}
	}
	defer obs.Stage(o.ctx(), "mincost."+m.String(), time.Now(), 0, nil)
	switch m {
	case Exact:
		if len(in.Chain) > MaxExactTasks {
			return cost.Solution{}, fmt.Errorf("core: exact min-cost limited to %d tasks (2^{n-1} partitions); use the heuristic", MaxExactTasks)
		}
		sol, err := cost.MinimizePar(o.ctx(), in.Chain, in.Platform, costs, minLogRel, b.Period, b.Latency, o.Parallelism)
		if err != nil {
			if errors.Is(err, cost.ErrInfeasible) {
				return cost.Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return cost.Solution{}, err
		}
		return sol, nil
	case Heuristic:
		floor, err := searchFloor(minLogRel)
		if err != nil {
			return cost.Solution{}, err
		}
		sopts := o.searchOptions()
		sopts.Tables = o.tables(in)
		sopts.Period, sopts.Latency = b.Period, b.Latency
		sopts.MinLogRel = floor
		sopts.Costs = costs
		res, ok, err := search.MinimizeCost(in.Chain, in.Platform, sopts)
		if err != nil {
			return cost.Solution{}, err
		}
		if !ok {
			return cost.Solution{}, fmt.Errorf("%w: heuristic search found no mapping meeting the constraints", ErrInfeasible)
		}
		return cost.Solution{Mapping: res.M, Eval: res.Ev, TotalCost: res.TotalCost}, nil
	default:
		return cost.Solution{}, fmt.Errorf("core: min-cost supports methods auto, exact and heuristic, not %v", m)
	}
}
