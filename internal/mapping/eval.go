package mapping

// Incremental (delta) evaluation for the local-search hot loop.
//
// Every §4 objective is an aggregate — a sum or a max — of per-interval
// terms, and each term depends only on that interval's own task range
// and replica set (an interval's input size is the output of the task
// preceding its First, so even the "boundary communication" never reads
// a neighboring interval's state). A neighborhood move rewrites one or
// two intervals and at most shifts the index of the rest, which means a
// neighbor's terms are the committed terms with one or two entries
// recomputed.
//
// The floating-point contract is the delicate part. The Evaluator is
// bit-identical to EvaluateUnchecked, not merely close, because it
// never subtracts a term out of a running aggregate (the classic
// incremental-evaluation trick, which drifts and breaks on ±Inf): it
// recombines the memoized terms from scratch, in ascending interval
// order, through the same aggregation code the full pass uses. The
// re-aggregation is O(m) cheap flops; the expensive transcendentals
// (expm1/log1p per replica, Eq. 3/9) are only re-run for the touched
// intervals. FuzzEvalDelta and internal/search's metamorphic suite
// enforce the bit-identity.

import (
	"math"
	"slices"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/platform"
)

// stageTerm memoizes everything the aggregation pass needs about one
// interval: the public StageEval quantities plus the derived
// log-reliability and outgoing communication time.
type stageTerm struct {
	StageEval
	logRel  float64 // log(1 - FailProb), the Eq. (9) contribution
	outTime float64 // CommTime(Out), charged to latency and the period
}

// replica is one entry of computeTerm's scratch: a processor of the
// interval and the failure probability of its compute leg, reordered in
// place for the expected-cost sum.
type replica struct {
	u     int
	fComp float64
}

// Links is the link-leg table of one instance: entry b is the
// log-reliability of the communication into task b,
// LogRel(Prob(LinkFailRate, CommTime(Out(b-1)))), for b = 0..n, so
// interval [First, Last] reads its incoming leg at First and its
// outgoing leg at Last+1. The legs depend only on the chain and the
// platform, so one table serves every mapping of the instance; it is
// read-only once built and safe to share between Evaluators.
type Links []float64

// NewLinks builds the link-leg table of (c, pl).
func NewLinks(c chain.Chain, pl platform.Platform) Links {
	l := make(Links, len(c)+1)
	for b := range l {
		l[b] = linkLeg(pl, c.Out(b-1))
	}
	return l
}

// linkLeg is the log-reliability of one communication of size data.
func linkLeg(pl platform.Platform, data float64) float64 {
	return failure.LogRel(failure.Prob(pl.LinkFailRate, pl.CommTime(data)))
}

// computeTerm fills t for interval j of m, whose incoming and outgoing
// link legs are lIn and lOut. reps is the scratch for the replicas'
// compute legs; the (possibly grown) slice is returned so callers can
// reuse it allocation-free.
//
// Each replica's failure probability folds its three legs in
// failure.Serial's order, starting from 0.0 (so a zero-rate replica
// gives Serial's −0, not +0), and the stage multiplies them as the
// parallel composition does: the floats are exactly those of
// ReplicaFailProb's product. The compute leg is computed once and
// reused by the Eq. (3) expected cost.
func computeTerm(t *stageTerm, c chain.Chain, pl platform.Platform, m Mapping, j int, lIn, lOut float64, reps []replica) []replica {
	t.Work = m.Parts.Work(c, j)
	t.In = m.Parts.In(c, j)
	t.Out = m.Parts.Out(c, j)
	reps = slices.Grow(reps[:0], len(m.Procs[j]))
	f := 1.0
	for _, u := range m.Procs[j] {
		fComp := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, t.Work))
		s := 0.0
		s += lIn
		s += failure.LogRel(fComp)
		s += lOut
		f *= -math.Expm1(s)
		reps = append(reps, replica{u: u, fComp: fComp})
	}
	t.FailProb = f
	t.ExpCost = expectedCost(pl, reps, t.Work)
	t.WorstCost = WorstCost(pl, m.Procs[j], t.Work)
	t.logRel = failure.LogRel(t.FailProb)
	t.outTime = pl.CommTime(t.Out)
	return reps
}

// aggregate folds per-interval terms into an Eval in ascending interval
// order — the exact accumulator sequence of the one-pass full
// evaluation, so recombining memoized terms is bit-identical to
// recomputing them. Stages is left nil: scoring reads only the
// aggregate scalars.
func aggregate(terms []stageTerm) Eval {
	var ev Eval
	commMax := 0.0
	for i := range terms {
		t := &terms[i]
		ev.LogRel += t.logRel
		ev.ExpLatency += t.ExpCost + t.outTime
		ev.WorstLatency += t.WorstCost + t.outTime
		if t.outTime > commMax {
			commMax = t.outTime
		}
		if t.ExpCost > ev.ExpPeriod {
			ev.ExpPeriod = t.ExpCost
		}
		if t.WorstCost > ev.WorstPeriod {
			ev.WorstPeriod = t.WorstCost
		}
	}
	if commMax > ev.ExpPeriod {
		ev.ExpPeriod = commMax
	}
	if commMax > ev.WorstPeriod {
		ev.WorstPeriod = commMax
	}
	ev.FailProb = failure.FromLogRel(ev.LogRel)
	return ev
}

// Touched describes how a proposed neighbor relates to the evaluator's
// committed mapping: which neighbor intervals need their terms
// recomputed, and how the remaining intervals re-align when the move
// changes the interval count. The search neighborhoods construct it via
// TouchOne/TouchTwo/TouchMerge/TouchSplit.
type Touched struct {
	// A and B are interval indices in the neighbor whose terms must be
	// recomputed; B is -1 when a single interval changed.
	A, B int
	// ShiftFrom/ShiftBy re-align the untouched intervals: a neighbor
	// interval j ≥ ShiftFrom (j ∉ {A, B}) reuses the committed term of
	// interval j+ShiftBy; intervals below ShiftFrom reuse index j.
	// A merge at j sets (j+1, +1), a split at j sets (j+2, -1),
	// count-preserving moves leave both 0.
	ShiftFrom, ShiftBy int
}

// TouchOne marks a move that rewrites only interval j (replica
// swap/add/drop).
func TouchOne(j int) Touched { return Touched{A: j, B: -1} }

// TouchTwo marks a count-preserving move that rewrites intervals a and
// b (boundary shift, replica steal).
func TouchTwo(a, b int) Touched { return Touched{A: a, B: b} }

// TouchMerge marks the fusion of intervals j and j+1 into j: later
// intervals shift down one index.
func TouchMerge(j int) Touched { return Touched{A: j, B: -1, ShiftFrom: j + 1, ShiftBy: 1} }

// TouchSplit marks the split of interval j into j and j+1: later
// intervals shift up one index.
func TouchSplit(j int) Touched { return Touched{A: j, B: j + 1, ShiftFrom: j + 2, ShiftBy: -1} }

// Evaluator scores neighbor mappings incrementally. Init performs one
// full evaluation and memoizes the per-interval terms; Apply scores a
// neighbor by recomputing only the touched intervals' terms, and the
// caller then either Commits the neighbor (it became the current state)
// or Reverts it. Exactly one of Commit/Revert must follow every Apply.
//
// All scratch state lives on the evaluator, so the Apply/Commit/Revert
// cycle allocates nothing once the buffers reach steady-state capacity.
// An Evaluator is not safe for concurrent use; the search engine owns
// one per restart.
type Evaluator struct {
	c         chain.Chain
	pl        platform.Platform
	links     Links
	cur, next []stageTerm
	reps      []replica
	pending   bool
}

// NewEvaluator returns an evaluator for one instance; links must be
// NewLinks(c, pl), built once per instance and shared by its
// evaluators. Call Init before the first Apply.
func NewEvaluator(c chain.Chain, pl platform.Platform, links Links) *Evaluator {
	return &Evaluator{c: c, pl: pl, links: links}
}

// term recomputes interval j of m into t, reading its link legs from
// the table.
func (e *Evaluator) term(t *stageTerm, m Mapping, j int) {
	iv := m.Parts[j]
	e.reps = computeTerm(t, e.c, e.pl, m, j, e.links[iv.First], e.links[iv.Last+1], e.reps)
}

// Init fully evaluates m, commits its terms as the base state, and
// returns the aggregate. The mapping must be valid (the hot loop builds
// neighbors valid by construction, like EvaluateUnchecked's callers).
// The returned Eval carries no Stages slice.
func (e *Evaluator) Init(m Mapping) Eval {
	e.pending = false
	e.cur = resizeTerms(e.cur, len(m.Parts))
	for j := range e.cur {
		e.term(&e.cur[j], m, j)
	}
	return aggregate(e.cur)
}

// Apply scores the neighbor m, which must differ from the committed
// mapping exactly as t describes. Terms for t's touched intervals are
// recomputed; every other term is reused bit-for-bit. The returned Eval
// (Stages nil) is bit-identical to EvaluateUnchecked(c, pl, m).
func (e *Evaluator) Apply(m Mapping, t Touched) Eval {
	if e.pending {
		panic("mapping: Evaluator.Apply without Commit/Revert of the previous Apply")
	}
	if len(e.cur) == 0 {
		panic("mapping: Evaluator.Apply before Init")
	}
	e.next = resizeTerms(e.next, len(m.Parts))
	for j := range e.next {
		if j == t.A || j == t.B {
			e.term(&e.next[j], m, j)
			continue
		}
		src := j
		if t.ShiftBy != 0 && j >= t.ShiftFrom {
			src = j + t.ShiftBy
		}
		e.next[j] = e.cur[src]
	}
	e.pending = true
	return aggregate(e.next)
}

// Commit makes the last Applied neighbor the committed mapping.
func (e *Evaluator) Commit() {
	if !e.pending {
		panic("mapping: Evaluator.Commit without a pending Apply")
	}
	e.cur, e.next = e.next, e.cur
	e.pending = false
}

// Revert discards the last Applied neighbor; the committed mapping is
// unchanged.
func (e *Evaluator) Revert() {
	if !e.pending {
		panic("mapping: Evaluator.Revert without a pending Apply")
	}
	e.pending = false
}

// resizeTerms resizes ts to n entries, reusing its backing array.
func resizeTerms(ts []stageTerm, n int) []stageTerm {
	if n <= cap(ts) {
		return ts[:n]
	}
	return append(ts[:cap(ts)], make([]stageTerm, n-cap(ts))...)
}
