package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/heur"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/par"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
	"relpipe/internal/rng"
)

// Options configures one search run. The zero value asks for the
// defaults noted on each field.
type Options struct {
	// Period and Latency bound the mapping (worst-case metrics);
	// values <= 0 are unconstrained. MinimizePeriod ignores Period
	// (the period is the objective).
	Period, Latency float64
	// MinLogRel is the log-reliability floor of MinimizePeriod and
	// MinimizeCost (Optimize ignores it). Log-reliabilities are
	// negative, so any value >= 0 means unconstrained.
	MinLogRel float64
	// Costs prices each processor for MinimizeCost (len == P).
	Costs []float64
	// Restarts is the portfolio size (default 8). Restart 0 refines
	// the best heuristic seed; later restarts cycle through the seed
	// pool and add deterministic random perturbations.
	Restarts int
	// Budget is the per-restart iteration budget (default
	// clamp(40·n, 2000, 20000)). A restart stops early after
	// max(500, Budget/4) iterations without improving its best.
	Budget int
	// Seed drives every random choice; equal seeds give equal
	// results at any parallelism. 0 selects the default seed 1, so
	// the zero Options value and the CLIs' `-search-seed 1` default
	// solve identically across every layer.
	Seed uint64

	// referenceEval scores every proposal with a full O(n)
	// mapping.EvaluateUnchecked pass instead of the incremental
	// evaluator. The two paths are bit-identical by contract — same
	// mapping, same Eval bits, same Stats (FuzzEvalDelta and the
	// delta_test metamorphic suite enforce it) — so the switch never
	// changes a result; it exists as the reference oracle for those
	// checks.
	referenceEval bool

	// alive and warm are set only by Repair. alive restricts every
	// allocation to the processors u with alive[u] true (nil admits
	// all). warm, when non-nil, leads the seed pool ahead of the §7
	// heuristic candidates regardless of score, so restart 0 refines
	// it; it must be valid for the instance, and Repair builds it with
	// Mapping.Mask, so it holds survivors only.
	alive []bool
	warm  *mapping.Mapping

	// Tables optionally injects the instance's heuristic tables
	// (heur.NewTables) into the seed-pool sweep: their partition tables
	// are built at most once and their seed memo answers a period-bound
	// cell another search already built. They must belong to this exact
	// instance — the service's table tier shares them across requests
	// whose cache keys carry the same canonical instance — and are
	// internally synchronized, so one value may serve any number of
	// concurrent searches. Candidates are bit-identical with or without
	// them; nil gives each sweep private tables.
	Tables *heur.Tables

	// Parallelism caps the portfolio's worker goroutines
	// (0 = GOMAXPROCS, negative = sequential); it never changes the
	// result. Context cancels the run mid-restart; nil means no
	// cancellation.
	Parallelism int
	Context     context.Context

	// Progress, when non-nil, receives (restartsCompleted, Restarts)
	// after each restart of the portfolio finishes. Reports come from
	// parallel shards (see internal/progress) and never influence the
	// result.
	Progress progress.Func
}

// Stats reports how a search run spent its budget.
type Stats struct {
	// Restarts actually launched (== Options.Restarts after defaults).
	Restarts int `json:"restarts"`
	// Iterations summed over every restart.
	Iterations int64 `json:"iterations"`
	// Accepted counts the annealer moves accepted across every restart
	// (improving moves plus Metropolis uphill acceptances); the
	// acceptance rate Accepted/Iterations is the classic annealing
	// health signal.
	Accepted int64 `json:"accepted"`
	// SeedScore is the best raw heuristic candidate's score before any
	// local search (the baseline the search must beat).
	SeedScore float64 `json:"seedScore"`
	// BestScore is the returned mapping's score.
	BestScore float64 `json:"bestScore"`
}

// Result is the outcome of a search run.
type Result struct {
	M  mapping.Mapping
	Ev mapping.Eval
	// TotalCost is the enrolled-processor cost (MinimizeCost only).
	TotalCost float64
	Stats     Stats
}

// objective selects what the engine optimizes and which constraints
// define feasibility.
type objective int

const (
	maxReliability objective = iota
	minPeriod
	minCost
)

// DefaultRestarts is the restart count of a search that sets none.
const DefaultRestarts = 8

// DefaultBudget is the per-restart iteration budget of a search over a
// chain of n tasks that sets none: 40 per task, within [2000, 20000].
func DefaultBudget(n int) int { return min(max(40*n, 2000), 20000) }

// defaults resolves the budget knobs for a chain of n tasks.
func (o Options) defaults(n int) Options {
	if o.Restarts <= 0 {
		o.Restarts = DefaultRestarts
	}
	if o.Budget <= 0 {
		o.Budget = DefaultBudget(n)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Optimize maximizes reliability under the Period/Latency bounds.
// ok is false when the search found no mapping meeting the bounds.
func Optimize(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	return run(c, pl, opts, maxReliability)
}

// MinimizePeriod minimizes the worst-case period subject to the
// MinLogRel reliability floor and the optional Latency bound.
func MinimizePeriod(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	return run(c, pl, opts, minPeriod)
}

// MinimizeCost minimizes the total price of the enrolled processors
// (opts.Costs) subject to the MinLogRel floor and the bounds.
func MinimizeCost(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	if len(opts.Costs) != pl.P() {
		return Result{}, false, fmt.Errorf("search: %d costs for %d processors", len(opts.Costs), pl.P())
	}
	for u, cu := range opts.Costs {
		if cu < 0 {
			return Result{}, false, fmt.Errorf("search: negative cost %v for processor %d", cu, u)
		}
	}
	return run(c, pl, opts, minCost)
}

// restartOut is one restart's best state, reduced deterministically.
type restartOut struct {
	score    float64
	m        mapping.Mapping
	cost     float64
	iters    int
	accepted int
	// deltaEvals/fullEvals count incremental vs full evaluations,
	// factorHits/factorMisses the evaluator's replica-factor cache, and
	// metropolisSkips the worsening moves the Metropolis shortcut
	// rejected; they feed the search.anneal stage attributes, never the
	// result.
	deltaEvals      int
	fullEvals       int
	factorHits      int
	factorMisses    int
	metropolisSkips int
}

// run drives the shared pipeline: validate, seed, portfolio, reduce.
func run(c chain.Chain, pl platform.Platform, opts Options, obj objective) (Result, bool, error) {
	if err := c.Validate(); err != nil {
		return Result{}, false, err
	}
	if err := pl.Validate(); err != nil {
		return Result{}, false, err
	}
	if w := opts.warm; w != nil {
		if err := w.Validate(c, pl); err != nil {
			return Result{}, false, fmt.Errorf("search: warm mapping: %w", err)
		}
	}
	opts = opts.defaults(len(c))
	prob := newProblem(c, pl, opts, obj)

	seedStart := time.Now()
	seeds, cells := prob.seedPool(opts.Restarts)
	obs.Stage(opts.Context, "search.seed", seedStart, int64(cells.hits+cells.misses), map[string]string{
		"cellHits":   strconv.Itoa(cells.hits),
		"cellMisses": strconv.Itoa(cells.misses),
	})
	if len(seeds) == 0 {
		// Not even an unconstrained single-interval allocation exists
		// (e.g. no processor is alive): no mapping at all.
		return Result{}, false, nil
	}
	seedScore := seeds[0].score

	annealStart := time.Now()
	restarts := progress.NewCounter(int64(opts.Restarts), opts.Progress)
	outs, err := par.Map(opts.Context, opts.Parallelism, opts.Restarts, func(r int) (restartOut, error) {
		out, err := prob.restart(r, seeds)
		if err == nil {
			restarts.Add(1)
		}
		return out, err
	})
	if err != nil {
		return Result{}, false, err
	}

	// Deterministic best-of reduce: highest score wins, ties go to the
	// lowest restart index (par.Map returns results in index order).
	best := outs[0]
	var iters, accepted int64
	var sum restartOut // counters only
	for i, o := range outs {
		iters += int64(o.iters)
		accepted += int64(o.accepted)
		sum.deltaEvals += o.deltaEvals
		sum.fullEvals += o.fullEvals
		sum.factorHits += o.factorHits
		sum.factorMisses += o.factorMisses
		sum.metropolisSkips += o.metropolisSkips
		if i > 0 && o.score > best.score {
			best = o
		}
	}
	obs.Stage(opts.Context, "search.anneal", annealStart, iters, map[string]string{
		"restarts":        strconv.Itoa(opts.Restarts),
		"accepted":        strconv.FormatInt(accepted, 10),
		"deltaEvals":      strconv.Itoa(sum.deltaEvals),
		"fullEvals":       strconv.Itoa(sum.fullEvals),
		"factorHits":      strconv.Itoa(sum.factorHits),
		"factorMisses":    strconv.Itoa(sum.factorMisses),
		"metropolisSkips": strconv.Itoa(sum.metropolisSkips),
	})

	// Re-evaluate through the validating path: the engine's own
	// bookkeeping must agree, and downstream callers receive an Eval
	// they could have computed themselves.
	ev, err := mapping.Evaluate(c, pl, best.m)
	if err != nil {
		return Result{}, false, err
	}
	res := Result{
		M: best.m, Ev: ev, TotalCost: best.cost,
		Stats: Stats{
			Restarts: opts.Restarts, Iterations: iters, Accepted: accepted,
			SeedScore: seedScore, BestScore: best.score,
		},
	}
	return res, prob.feasible(ev.Score()), nil
}

// problem bundles the immutable inputs of one run.
type problem struct {
	c     chain.Chain
	pl    platform.Platform
	links mapping.Links // shared read-only by every restart's evaluator
	opts  Options
	obj   objective
}

// newProblem builds the search problem of one solve, with its link-leg
// table.
func newProblem(c chain.Chain, pl platform.Platform, opts Options, obj objective) problem {
	return problem{c: c, pl: pl, links: mapping.NewLinks(c, pl), opts: opts, obj: obj}
}

// minLogRel returns the effective reliability floor (-Inf when
// unconstrained; values >= 0 mean unconstrained by convention).
func (p problem) minLogRel() float64 {
	if p.obj == maxReliability || p.opts.MinLogRel >= 0 {
		return math.Inf(-1)
	}
	return p.opts.MinLogRel
}

// violation measures how far a mapping's score aggregates are from
// feasibility (0 when feasible). Terms are normalized so one violated
// constraint cannot drown out progress on another.
func (p problem) violation(ev mapping.Score) float64 {
	v := 0.0
	if p.obj != minPeriod && p.opts.Period > 0 && ev.WorstPeriod > p.opts.Period {
		v += (ev.WorstPeriod - p.opts.Period) / p.opts.Period
	}
	if p.opts.Latency > 0 && ev.WorstLatency > p.opts.Latency {
		v += (ev.WorstLatency - p.opts.Latency) / p.opts.Latency
	}
	if floor := p.minLogRel(); ev.LogRel < floor {
		v += floor - ev.LogRel // both finite or LogRel=-Inf → +Inf
	}
	return v
}

func (p problem) feasible(ev mapping.Score) bool { return p.violation(ev) == 0 }

// infeasiblePenalty separates every infeasible score from every
// feasible one: feasible scores are -WorstPeriod, -cost or LogRel, all
// far above this base in any realistic instance. The magnitude is
// deliberately modest — float64 resolution at 1e18 is 128, which would
// absorb any normalized violation below ~64 and erase the repair
// gradient; at 1e9 the multiplicative encoding below resolves
// violations down to ~1e-9 relative.
const infeasiblePenalty = -1e9

// score maps a mapping's score aggregates to the scalar the annealer
// maximizes.
// Infeasible states score infeasiblePenalty·(1+violation): always
// below any realistic feasible score, and monotonically decreasing in
// the violation so the annealer can descend toward feasibility.
func (p problem) score(ev mapping.Score, cost float64) float64 {
	if v := p.violation(ev); v > 0 {
		return infeasiblePenalty * (1 + v)
	}
	switch p.obj {
	case minPeriod:
		return -ev.WorstPeriod
	case minCost:
		return -cost
	default:
		return ev.LogRel
	}
}

// cost totals the enrolled-processor prices of a mapping (0 outside
// the minCost objective).
func (p problem) cost(procs [][]int) float64 {
	if p.obj != minCost {
		return 0
	}
	s := 0.0
	for _, ps := range procs {
		for _, u := range ps {
			s += p.opts.Costs[u]
		}
	}
	return s
}

// seedCandidate is one seed-pool entry with its score. A heuristic
// candidate (m > 0) is scored from its heur.Seed and becomes a state
// only when a restart will copy it; a warm mapping (m == 0) carries its
// state from the start.
type seedCandidate struct {
	st              state
	score           float64
	m               int
	latencyOriented bool
	seed            heur.Seed
}

// cellTally counts the seed-memo lookups of one seed pool: hits were
// served from the heuristic tables' memo, misses were built.
type cellTally struct{ hits, misses int }

// sampledM picks the interval counts the seed pool tries: every count
// up to 24, then a ×1.25 geometric ladder to maxM, so the Heur-P
// O(n²m) dynamic program stays tractable on 500-stage chains.
func sampledM(maxM int) []int {
	const dense = 24
	n := maxM
	if n > dense {
		n = dense
	}
	ms := make([]int, n)
	for i := range ms {
		ms[i] = i + 1
	}
	if maxM <= dense {
		return ms
	}
	for m := dense * 5 / 4; m < maxM; m = m * 5 / 4 {
		ms = append(ms, m)
	}
	return append(ms, maxM)
}

// seedPool generates the Heur-L / Heur-P candidates over the sampled
// interval counts, scores them, and returns the best keep of them best
// first, each with its state. The allocation honours the period bound
// when the objective keeps it as a constraint; if no bounded allocation
// exists anywhere, unbounded allocations are admitted so the annealer
// can start from an infeasible state and repair it.
//
// Restart r copies entry r mod len(pool), so a portfolio of R restarts
// reads only the first R entries, and cutting the pool there changes no
// restart; a caller that reads every entry passes math.MaxInt.
func (p problem) seedPool(keep int) ([]seedCandidate, cellTally) {
	maxM := len(p.c)
	if p.pl.P() < maxM {
		maxM = p.pl.P()
	}
	heurPeriod := p.opts.Period
	if p.obj == minPeriod {
		heurPeriod = 0
	}
	gen, pool, cells := p.candidates(maxM, heurPeriod)
	if len(pool) == 0 && heurPeriod > 0 {
		var more cellTally
		gen, pool, more = p.candidates(maxM, 0)
		cells.hits += more.hits
		cells.misses += more.misses
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].score > pool[b].score })
	if w := p.opts.warm; w != nil {
		// The warm mapping leads the pool unconditionally (not merged
		// by score): it is the mapping that was running before a
		// failure, the state to refine first. One full pass scores it:
		// an Evaluator's factor cache would not pay for one mapping.
		pool = append([]seedCandidate{{
			st:    newState(p.pl, w.Parts.Clone(), cloneProcs(w.Procs)),
			score: p.score(mapping.EvaluateUnchecked(p.c, p.pl, *w).Score(), p.cost(w.Procs)),
		}}, pool...)
	}
	if len(pool) > keep {
		pool = pool[:keep]
	}
	for i := range pool {
		if sc := &pool[i]; sc.m > 0 {
			parts, _ := gen.Partition(sc.m, sc.latencyOriented)
			sc.st = newState(p.pl, parts, sc.seed.Procs())
		}
	}
	return pool, cells
}

// candidates scores the heuristic candidates of one sweep in sweep
// order (interval count, then Heur-P before Heur-L), with the generator
// that partitions them. It first looks every candidate up in the seed
// memo of the shared tables, then builds the misses — the
// search.seed.build stage — so a hit costs no partition, allocation or
// evaluation.
func (p problem) candidates(maxM int, heurPeriod float64) (*heur.Gen, []seedCandidate, cellTally) {
	// One generator per sweep: the Heur-P partition DP is built once for
	// maxM and shared across every sampled interval count — or not even
	// once, when the caller supplied batch-shared tables.
	gen := heur.NewGen(p.c, p.pl, heur.Options{Period: heurPeriod, Alive: p.opts.alive}, p.opts.Tables)
	type slot struct {
		seedCandidate
		ok, found bool
	}
	ms := sampledM(maxM)
	slots := make([]slot, 0, 2*len(ms))
	var cells cellTally
	for _, m := range ms {
		for _, latencyOriented := range []bool{false, true} {
			sl := slot{seedCandidate: seedCandidate{m: m, latencyOriented: latencyOriented}}
			sl.seed, sl.ok, sl.found = gen.Lookup(m, latencyOriented)
			if sl.found {
				cells.hits++
			}
			slots = append(slots, sl)
		}
	}
	if cells.misses = len(slots) - cells.hits; cells.misses > 0 {
		buildStart := time.Now()
		for i := range slots {
			if sl := &slots[i]; !sl.found {
				sl.seed, sl.ok = gen.Build(sl.m, sl.latencyOriented)
			}
		}
		obs.Stage(p.opts.Context, "search.seed.build", buildStart, int64(cells.misses), nil)
	}
	var pool []seedCandidate
	for _, sl := range slots {
		if !sl.ok {
			continue
		}
		cost := 0.0
		if p.obj == minCost {
			cost = sl.seed.Cost(p.opts.Costs)
		}
		ev := mapping.Score{WorstPeriod: sl.seed.WorstPeriod, WorstLatency: sl.seed.WorstLatency, LogRel: sl.seed.LogRel}
		sl.score = p.score(ev, cost)
		pool = append(pool, sl.seedCandidate)
	}
	return gen, pool, cells
}

// restartRng returns the deterministic generator of restart r: a fixed
// function of (Seed, r) only, so scheduling never shifts a stream.
func restartRng(seed uint64, r int) *rng.Rand {
	return rng.New(seed + 0x9E3779B97F4A7C15*uint64(r+1))
}

// restart runs one annealing pass from its assigned seed candidate.
//
// The hot loop is allocation-free in steady state: cur/next are two
// reused state buffers (an accepted move is a pointer swap), and
// scoring goes through the incremental evaluator, which recomputes only
// the intervals the move touched and recombines memoized terms for the
// rest — bit-identical to the full pass by the Evaluator's contract, so
// the annealing trajectory (accept/reject decisions, Stats, the best
// mapping) is exactly the referenceEval trajectory.
func (p problem) restart(r int, seeds []seedCandidate) (restartOut, error) {
	rand := restartRng(p.opts.Seed, r)
	var bufA, bufB state
	cur, next := &bufA, &bufB
	cur.copyFrom(&seeds[r%len(seeds)].st)

	// Later cycles through the pool diversify by random perturbation:
	// a burst of unconditionally-accepted moves.
	if r >= len(seeds) {
		kicks := 2 + rand.IntN(6)
		for i := 0; i < kicks; i++ {
			if _, ok := p.propose(cur, next, rand); ok {
				cur, next = next, cur
			}
		}
	}

	out := restartOut{}
	curCost := p.cost(cur.procs)
	var eval *mapping.Evaluator
	var curScore float64
	if p.opts.referenceEval {
		curScore = p.score(mapping.EvaluateUnchecked(p.c, p.pl, cur.mapping()).Score(), curCost)
		out.fullEvals++
	} else {
		eval = mapping.NewEvaluator(p.c, p.pl, p.links)
		curScore = p.score(eval.Init(cur.mapping()), curCost)
		out.fullEvals++
	}
	best, bestCost, bestScore := cur.clone(), curCost, curScore

	// Temperature scale: a few percent of the current objective
	// magnitude (or the violation, when starting infeasible), decaying
	// geometrically to 1e-3 of itself over the budget.
	t0 := 0.05 * math.Max(1e-9, scoreMagnitude(curScore))
	budget := p.opts.Budget
	patience := max(500, budget/4) // non-improving iterations before the restart stops
	stall := 0
	for it := 0; it < budget; it++ {
		out.iters++
		if it&255 == 0 {
			if ctx := p.opts.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					return restartOut{}, err
				}
			}
		}
		touched, ok := p.propose(cur, next, rand)
		if !ok {
			continue
		}
		nextCost := p.cost(next.procs)
		var nextScore float64
		if eval != nil {
			nextScore = p.score(eval.Apply(next.mapping(), touched), nextCost)
			out.deltaEvals++
		} else {
			nextScore = p.score(mapping.EvaluateUnchecked(p.c, p.pl, next.mapping()).Score(), nextCost)
			out.fullEvals++
		}
		delta := nextScore - curScore
		accept := delta >= 0
		if !accept {
			u := rand.Float64()
			if eval == nil {
				// The reference path keeps the plain test, so the
				// metamorphic suite also checks the shortcut.
				accept = u < math.Exp(delta/temperature(t0, it, budget))
			} else {
				var skipped bool
				accept, skipped = metropolis(u, delta, t0, it, budget)
				if skipped {
					out.metropolisSkips++
				}
			}
		}
		if accept {
			if eval != nil {
				eval.Commit()
			}
			cur, next = next, cur
			curCost, curScore = nextCost, nextScore
			out.accepted++
		} else if eval != nil {
			eval.Revert()
		}
		if curScore > bestScore {
			best, bestCost, bestScore = cur.clone(), curCost, curScore
			stall = 0
		} else if stall++; stall > patience {
			break
		}
	}
	if eval != nil {
		out.factorHits, out.factorMisses = eval.FactorCounts()
	}
	out.score = bestScore
	out.m = best.mapping()
	out.cost = bestCost
	return out, nil
}

// scoreMagnitude strips the infeasibility base so the temperature
// reflects the active objective's scale (for an infeasible start, the
// violation term).
func scoreMagnitude(score float64) float64 {
	if score <= infeasiblePenalty {
		return score/infeasiblePenalty - 1
	}
	return math.Abs(score)
}

// temperature is the geometric cooling schedule.
func temperature(t0 float64, it, budget int) float64 {
	return t0 * math.Pow(1e-3, float64(it)/float64(budget))
}

// metropolisCutoff bounds the exponent below which no draw can pass the
// Metropolis test: Exp(−40) ≈ 4.2e-18 < 2⁻⁵³.
const metropolisCutoff = -40

// metropolis is the annealer's acceptance test of a worsening move,
// u < Exp(delta/temperature(t0, it, budget)), for a draw u of
// rng.Float64 and 0 ≤ it < budget. When u != 0 and
// delta/t0 < metropolisCutoff it rejects without evaluating the
// temperature's Pow or the Exp (skipped is then true), and the answer
// is still exactly the plain test's:
//
//   - The cooling factor P = Pow(1e-3, it/budget) lies in (0, 1], and
//     rounding is monotone, so the temperature T = fl(t0·P) lies
//     between 0 and t0. Dividing delta by the smaller magnitude only
//     moves the quotient away from zero, so
//     fl(delta/T) ≤ fl(delta/t0) < −40. (A T that underflows to zero
//     keeps t0's sign, and the quotient is then −Inf.)
//   - Exp(x) for x < −40 is below Exp(−40) ≈ 4.2e-18, within an ulp on
//     every architecture, hence below 2⁻⁵³ ≈ 1.1e-16. rng.Float64
//     returns multiples of 2⁻⁵³, so a nonzero u is at least 2⁻⁵³ and
//     u < Exp(delta/T) is false.
//   - A NaN or +Inf quotient fails the shortcut's test and falls
//     through to the plain test; so does u = 0, for which 0 < Exp(x)
//     may hold.
func metropolis(u, delta, t0 float64, it, budget int) (accept, skipped bool) {
	if u != 0 && delta/t0 < metropolisCutoff {
		return false, true
	}
	return u < math.Exp(delta/temperature(t0, it, budget)), false
}

// state is one point of the search space: a partition with its replica
// sets, plus the pool of unused processors (kept in deterministic
// order — every mutation is a pure function of the restart's rng).
type state struct {
	parts  interval.Partition
	procs  [][]int
	unused []int
}

// newState builds the state of a mapping, taking ownership of parts and
// procs.
func newState(pl platform.Platform, parts interval.Partition, procs [][]int) state {
	used := make([]bool, pl.P())
	for _, ps := range procs {
		for _, u := range ps {
			used[u] = true
		}
	}
	var unused []int
	for u := 0; u < pl.P(); u++ {
		if !used[u] {
			unused = append(unused, u)
		}
	}
	return state{parts: parts, procs: procs, unused: unused}
}

func cloneProcs(procs [][]int) [][]int {
	out := make([][]int, len(procs))
	for j, ps := range procs {
		out[j] = append([]int(nil), ps...)
	}
	return out
}

func (s state) clone() state {
	return state{
		parts:  s.parts.Clone(),
		procs:  cloneProcs(s.procs),
		unused: append([]int(nil), s.unused...),
	}
}

// copyFrom overwrites s with a deep copy of src, reusing s's backing
// arrays: the move loop's buffers stop allocating once they reach
// steady-state capacity.
func (s *state) copyFrom(src *state) {
	s.parts = append(s.parts[:0], src.parts...)
	s.unused = append(s.unused[:0], src.unused...)
	s.setIntervals(len(src.procs))
	for j := range src.procs {
		s.setProcs(j, src.procs[j])
	}
}

// setIntervals resizes s.procs to n replica sets, keeping the scratch
// arrays of slots that have been used before.
func (s *state) setIntervals(n int) {
	if n <= cap(s.procs) {
		s.procs = s.procs[:n]
		return
	}
	s.procs = append(s.procs[:cap(s.procs)], make([][]int, n-cap(s.procs))...)
}

// setProcs replaces replica set j with a copy of us.
func (s *state) setProcs(j int, us []int) {
	s.procs[j] = append(s.procs[j][:0], us...)
}

func (s state) mapping() mapping.Mapping {
	return mapping.Mapping{Parts: s.parts, Procs: s.procs}
}
