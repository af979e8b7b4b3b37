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
	"relpipe/internal/heur"
	"relpipe/internal/ilp"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
	"relpipe/internal/search"
)

// Exec controls how a solver executes: the parallelism degree of its
// sharded hot paths and an optional cancellation context. The zero value
// runs at GOMAXPROCS with no cancellation. Parallelism never changes a
// solver's answer — every parallel path reduces deterministically to the
// sequential result (see internal/par).
type Exec struct {
	// Ctx cancels long solves mid-shard; nil means background.
	Ctx context.Context
	// Parallelism caps the solver's worker goroutines: 0 = GOMAXPROCS,
	// 1 = sequential. The exact (optimize and min-cost), DP, frontier
	// and search solvers honour it; the raw heuristics and ILP are
	// already sub-millisecond and run sequentially.
	Parallelism int
	// Restarts, Budget and Seed tune the Heuristic search method
	// (portfolio size, per-restart iteration budget, rng seed); zero
	// values pick the search defaults. TimeBudget is its optional
	// wall-clock safety cap. The other methods ignore all four.
	Restarts   int
	Budget     int
	Seed       uint64
	TimeBudget time.Duration
	// Progress, when non-nil, receives completion counts from the
	// engines that report them — search restarts here (the other
	// Optimize methods finish in one unit of work and report nothing).
	// Reporting never influences a result (see internal/progress).
	Progress progress.Func
	// Tables, when non-nil, supplies pre-built heuristic partition
	// tables (heur.BuildTables) for the instance about to be solved.
	// Only the Heuristic search method consults it, and only at the
	// moment it actually seeds a search — Auto runs that route to the
	// exact or DP solvers never invoke the provider, so nothing is
	// built in vain. The provider may return nil to decline (the
	// search then builds its own tables); when it does return tables
	// they must match the instance it was called with. This is the
	// seam the service's table tier uses to share one table build
	// across the requests of one instance.
	Tables func(Instance) *heur.Tables
}

// tables consults the optional Tables provider.
func (e Exec) tables(in Instance) *heur.Tables {
	if e.Tables == nil {
		return nil
	}
	return e.Tables(in)
}

func (e Exec) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
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
// (possibly wrapped) when no mapping fits.
func Optimize(in Instance, b Bounds, m Method) (Solution, error) {
	return OptimizeExec(in, b, m, Exec{})
}

// OptimizeExec is Optimize with explicit execution options (parallelism
// degree, cancellation). The answer is identical for every Exec.
func OptimizeExec(in Instance, b Bounds, m Method, ex Exec) (Solution, error) {
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
	defer obs.Stage(ex.ctx(), "solve."+m.String(), time.Now(), 0, nil)
	return optimizeResolved(in, b, m, ex)
}

// optimizeResolved dispatches an already-resolved (non-Auto) method.
func optimizeResolved(in Instance, b Bounds, m Method, ex Exec) (Solution, error) {
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
		return wrap(dp.OptimizeReliabilityPeriodPar(ex.ctx(), in.Chain, in.Platform, b.Period, ex.Parallelism))
	case Exact:
		if len(in.Chain) > MaxExactTasks {
			return Solution{}, fmt.Errorf("core: Exact limited to %d tasks (2^{n-1} partitions); use the heuristics", MaxExactTasks)
		}
		return wrap(exact.OptimalPar(ex.ctx(), in.Chain, in.Platform, b.Period, b.Latency, ex.Parallelism))
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
		sopts := ex.SearchOptions()
		sopts.Tables = ex.tables(in)
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

// SearchOptions translates the execution budget into search knobs
// (bounds and objective parameters are filled in by each caller).
func (e Exec) SearchOptions() search.Options {
	return search.Options{
		Restarts: e.Restarts, Budget: e.Budget, Seed: e.Seed,
		TimeBudget: e.TimeBudget, Parallelism: e.Parallelism, Context: e.Ctx,
		Progress: e.Progress,
	}
}

// searchFloor maps a log-reliability floor into the search convention
// (values >= 0 mean unconstrained there, because the zero Options
// value must mean "no floor"). A floor of exactly 0 — reliability 1,
// reachable on zero-failure-rate platforms — becomes the smallest
// negative float, which accepts exactly LogRel == 0: no float64
// log-reliability lies strictly between them, so the semantics are
// preserved bit for bit.
func searchFloor(minLogRel float64) float64 {
	if minLogRel == 0 {
		return -math.SmallestNonzeroFloat64
	}
	return minLogRel
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

// MinPeriodMethodExec returns the mapping minimizing the period subject
// to a minimum log-reliability (use math.Inf(-1) for unconstrained), the
// converse problem of §5.2. The method picks the solver: DP (the exact
// §5.2 binary search, homogeneous only), Heuristic (the search engine,
// any platform), or Auto (DP when the platform is homogeneous, the
// search otherwise).
func MinPeriodMethodExec(in Instance, minLogRel float64, m Method, ex Exec) (Solution, error) {
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
	defer obs.Stage(ex.ctx(), "minperiod."+m.String(), time.Now(), 0, nil)
	switch m {
	case DP:
		mp, ev, err := dp.MinPeriodForReliabilityPar(ex.ctx(), in.Chain, in.Platform, minLogRel, ex.Parallelism)
		if err != nil {
			if errors.Is(err, dp.ErrInfeasible) {
				return Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return Solution{}, err
		}
		return Solution{Method: "min-period", Mapping: mp, Eval: ev}, nil
	case Heuristic:
		sopts := ex.SearchOptions()
		sopts.Tables = ex.tables(in)
		sopts.MinLogRel = searchFloor(minLogRel)
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

// MinimizeCostExec returns the cheapest mapping meeting a
// log-reliability floor and the bounds. Method Exact runs the
// enumerative solver of internal/cost (homogeneous platforms within
// the partition-enumeration ceiling); Heuristic runs the search engine
// (any platform, any size); Auto picks Exact when it applies and the
// search otherwise.
func MinimizeCostExec(in Instance, costs []float64, minLogRel float64, b Bounds, m Method, ex Exec) (cost.Solution, error) {
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
	defer obs.Stage(ex.ctx(), "mincost."+m.String(), time.Now(), 0, nil)
	switch m {
	case Exact:
		if len(in.Chain) > MaxExactTasks {
			return cost.Solution{}, fmt.Errorf("core: exact min-cost limited to %d tasks (2^{n-1} partitions); use the heuristic", MaxExactTasks)
		}
		sol, err := cost.MinimizePar(ex.ctx(), in.Chain, in.Platform, costs, minLogRel, b.Period, b.Latency, ex.Parallelism)
		if err != nil {
			if errors.Is(err, cost.ErrInfeasible) {
				return cost.Solution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return cost.Solution{}, err
		}
		return sol, nil
	case Heuristic:
		sopts := ex.SearchOptions()
		sopts.Tables = ex.tables(in)
		sopts.Period, sopts.Latency = b.Period, b.Latency
		sopts.MinLogRel = searchFloor(minLogRel)
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
