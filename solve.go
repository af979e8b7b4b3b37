package relpipe

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
	"relpipe/internal/search"
)

// Options tunes how solvers execute: parallelism degree, cancellation,
// the Heuristic method's search knobs (Restarts, Budget, Seed), a
// progress hook and shared heuristic tables. The zero value runs at
// GOMAXPROCS with no cancellation and the search defaults.
//
// Determinism contract: an answer depends only on the instance, the
// bounds, the method and the search knobs, never on Parallelism,
// Context, Progress or Tables. Every parallel path shards its index
// space and reduces in deterministic order, so results are
// bit-identical to the sequential run for any degree (see internal/par;
// enforced by differential tests), and for a fixed Seed the Heuristic
// method's answer too is identical at every parallelism degree.
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
	// Monte-Carlo replications (SimulateBatch, AdaptBatch) and frontier
	// sweep stages (FrontierWith); the other Optimize methods finish in
	// one unit of work and report nothing. Reports may come from
	// parallel workers; the hook must be concurrency-safe and never
	// influences a result (see internal/progress). This is the
	// observability hook the async job service streams over SSE.
	Progress func(done, total int64)
	// Tables, when non-nil, supplies the heuristic tables
	// (HeuristicTables) of the instance about to be solved. Only the
	// Heuristic search method consults it, and only at the moment it
	// actually seeds a search — Auto runs that route to the exact or DP
	// solvers never invoke the provider, so nothing is built in vain.
	// The provider may return nil to decline (the search then uses
	// private tables); when it does return tables they must match the
	// instance it was called with. The tables build lazily, at most
	// once, and they and their seed memo are internally synchronized, so
	// one value is safe to share across concurrent solves of the same
	// instance: the service's table tier amortizes one build across the
	// requests of one instance through this hook. Candidates, and hence
	// solutions, are bit-identical with or without it.
	Tables func(Instance) *HeuristicTables
}

// tables consults the optional Tables provider.
func (o Options) tables(in Instance) *HeuristicTables {
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

// ErrInfeasible is returned (wrapped; test with errors.Is) by the
// solvers when no mapping fits the bounds: Optimize and its variants,
// MinPeriod, MinimizeCostWith and OptimizeShared. Its "core:" prefix,
// like the other solver errors', is kept for byte compatibility.
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

// Optimization methods.
const (
	// Auto picks the strongest applicable method: the exact solver on
	// homogeneous platforms of tractable size, the reliability DP when
	// only a period bound is given, the search engine otherwise.
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
	// DP is the §5.1–5.2 reliability/period dynamic program (Algorithm
	// 1/2): optimal on homogeneous platforms without a latency bound.
	DP
	// Exact enumerates partitions with optimal allocation: optimal on
	// homogeneous platforms up to 22 tasks (the latency-bounded
	// problem is NP-complete, Theorem 3).
	Exact
	// ILP solves the §5.4 integer program by branch and bound
	// (homogeneous platforms).
	ILP
	// Heuristic is the large-n search engine (internal/search): §7
	// candidates refined by a deterministic random-restart local-search
	// portfolio, for any platform and chain length; Auto selects it
	// beyond the exact ceiling (22 tasks) with a latency bound or on a
	// heterogeneous platform. Deterministic for a fixed seed.
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

// ParseMethod converts a CLI name ("exact", "heur-p", …) into a Method.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if strings.EqualFold(s, name) {
			return m, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown method %q", s)
}

// Solution is a mapping with its evaluation, the output of Optimize.
type Solution struct {
	Method  string  `json:"method"`
	Mapping Mapping `json:"mapping"`
	Eval    Eval    `json:"eval"`
}

// maxExactTasks bounds partition enumeration (2^{n-1} partitions): Auto
// routes longer chains elsewhere, and the enumerating solvers refuse them.
const maxExactTasks = 22

// Optimize computes a reliability-maximal mapping under the bounds
// (OptimizeWith with the zero Options).
func Optimize(in Instance, b Bounds, m Method) (Solution, error) {
	return OptimizeWith(in, b, m, Options{})
}

// OptimizeWith computes a mapping of the instance maximizing
// reliability under the bounds, with the requested method and execution
// options. It returns ErrInfeasible (possibly wrapped) when no mapping
// fits. The answer is identical for every Options value with the same
// search knobs.
func OptimizeWith(in Instance, b Bounds, m Method, o Options) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	if m == Auto {
		switch {
		case in.Platform.Homogeneous() && len(in.Chain) <= maxExactTasks:
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
	wrap := func(mp Mapping, ev Eval, err error) (Solution, error) {
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
		res, ok, err := fn(in.Chain, in.Platform, heur.Options{Period: b.Period, Latency: b.Latency}, nil)
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
		if len(in.Chain) > maxExactTasks {
			return Solution{}, fmt.Errorf("core: Exact limited to %d tasks (2^{n-1} partitions); use the heuristics", maxExactTasks)
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
		return wrap(model.Solve())
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
// engine for instances beyond the exact enumeration ceiling
// (large chains, heterogeneous platforms): a lower bound on the true
// surface built from the §7 seed pool plus search-refined optima under
// a ladder of period bounds. Deterministic for a fixed o.Seed.
func FrontierHeuristic(in Instance, o Options) ([]FrontierPoint, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return search.Frontier(in.Chain, in.Platform, o.searchOptions())
}

// logFloor turns a reliability floor (0 or below: unconstrained) into
// the log-reliability floor the solvers take.
func logFloor(minReliability float64) float64 {
	if minReliability > 0 {
		return math.Log(minReliability)
	}
	return math.Inf(-1)
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

// Evaluate computes reliability, latency and period of a mapping (§4).
func Evaluate(in Instance, m Mapping) (Eval, error) {
	if err := in.Validate(); err != nil {
		return Eval{}, err
	}
	return mapping.Evaluate(in.Chain, in.Platform, m)
}

// UnroutedFailProb computes the exact failure probability of a mapping
// without routing operations (the paper's future-work question): every
// replica of an interval sends directly to every replica of the next,
// crossing each boundary once instead of twice (the Fig. 4 diagram).
// For chains a dynamic program over delivering replica subsets
// evaluates that diagram exactly in O(m·4^K) (mapping.StageSystem); as
// that is exponential in K, an interval of more than 8 replicas is an
// error.
func UnroutedFailProb(in Instance, m Mapping) (float64, error) {
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

// MinPeriod minimizes the period subject to a reliability floor (§5.2,
// converse problem): the exact DP binary search on homogeneous
// platforms, the heuristic search engine on heterogeneous ones.
// minReliability is the required success probability per data set;
// pass 0 for unconstrained. A floor above 1 admits no mapping: every
// method answers ErrInfeasible.
func MinPeriod(in Instance, minReliability float64) (Solution, error) {
	return MinPeriodMethod(in, minReliability, Auto, Options{})
}

// MinPeriodMethod is MinPeriod with an explicit method and execution
// options: DP (the exact §5.2 binary search, homogeneous only),
// Heuristic (the search engine, any platform), or Auto (DP when the
// platform is homogeneous, the search otherwise).
func MinPeriodMethod(in Instance, minReliability float64, m Method, o Options) (Solution, error) {
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
	minLogRel := logFloor(minReliability)
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

// MinimizeCostWith returns the cheapest mapping meeting a reliability
// floor (success probability per data set; 0 for unconstrained, above 1
// ErrInfeasible on every method) and the bounds — the resource-cost
// extension of §9 — with an explicit method and execution options.
// Exact runs the enumerative solver on homogeneous instances within the
// partition-enumeration ceiling, Heuristic the search engine on any
// instance, and Auto picks Exact when it applies and the search
// otherwise.
func MinimizeCostWith(in Instance, costs []float64, minReliability float64, b Bounds, m Method, o Options) (CostSolution, error) {
	if err := in.Validate(); err != nil {
		return CostSolution{}, err
	}
	if m == Auto {
		if in.Platform.Homogeneous() && len(in.Chain) <= maxExactTasks {
			m = Exact
		} else {
			m = Heuristic
		}
	}
	defer obs.Stage(o.ctx(), "mincost."+m.String(), time.Now(), 0, nil)
	minLogRel := logFloor(minReliability)
	switch m {
	case Exact:
		if len(in.Chain) > maxExactTasks {
			return CostSolution{}, fmt.Errorf("core: exact min-cost limited to %d tasks (2^{n-1} partitions); use the heuristic", maxExactTasks)
		}
		sol, err := cost.MinimizePar(o.ctx(), in.Chain, in.Platform, costs, minLogRel, b.Period, b.Latency, o.Parallelism)
		if err != nil {
			if errors.Is(err, cost.ErrInfeasible) {
				return CostSolution{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			return CostSolution{}, err
		}
		return sol, nil
	case Heuristic:
		floor, err := searchFloor(minLogRel)
		if err != nil {
			return CostSolution{}, err
		}
		sopts := o.searchOptions()
		sopts.Tables = o.tables(in)
		sopts.Period, sopts.Latency = b.Period, b.Latency
		sopts.MinLogRel = floor
		sopts.Costs = costs
		res, ok, err := search.MinimizeCost(in.Chain, in.Platform, sopts)
		if err != nil {
			return CostSolution{}, err
		}
		if !ok {
			return CostSolution{}, fmt.Errorf("%w: heuristic search found no mapping meeting the constraints", ErrInfeasible)
		}
		return CostSolution{Mapping: res.M, Eval: res.Ev, TotalCost: res.TotalCost}, nil
	default:
		return CostSolution{}, fmt.Errorf("core: min-cost supports methods auto, exact and heuristic, not %v", m)
	}
}
