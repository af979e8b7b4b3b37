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
// The search scores a mapping from three aggregates only — LogRel,
// WorstPeriod and WorstLatency, the Score — so the Evaluator computes
// only those: its terms carry no expected cost (Eq. 3), and it never
// forms FailProb. EvaluateUnchecked computes the same terms and adds the
// expected-cost side on top.
//
// The floating-point contract is the delicate part. The Evaluator's
// Score is bit-identical to EvaluateUnchecked's, not merely close,
// because it never subtracts a term out of a running aggregate (the
// classic incremental-evaluation trick, which drifts and breaks on
// ±Inf): it recombines the memoized terms from scratch, in ascending
// interval order, through the same aggregation code the full pass uses.
// The re-aggregation is O(m) cheap flops; the expensive transcendentals
// (expm1/log1p per replica, Eq. 9) are only re-run for the touched
// intervals, and only for replicas the factor cache does not hold.
// FuzzEvalDelta and internal/search's metamorphic suite enforce the
// bit-identity.

import (
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
)

// Score is the part of an Eval the local search reads: the aggregates
// its objectives and constraints are stated in.
type Score struct {
	LogRel       float64 // log of Eq. (9)
	WorstPeriod  float64 // WP, Eq. (8)
	WorstLatency float64 // WL, Eq. (7)
}

// term memoizes what the score's aggregation reads about one interval.
type term struct {
	logRel    float64 // log(1 - FailProb), the Eq. (9) contribution
	worstCost float64 // wc(I_j, P_j), Eq. (4)
	outTime   float64 // CommTime(Out), charged to latency and the period
}

// scoreTerm builds the term of an interval of the given work, replica
// set, stage failure probability and output size; the full pass and
// the Evaluator both end each interval here.
func scoreTerm(pl platform.Platform, procs []int, work, failProb, out float64) term {
	return term{
		logRel:    failure.LogRel(failProb),
		worstCost: WorstCost(pl, procs, work),
		outTime:   pl.CommTime(out),
	}
}

// computeLeg is the failure probability of processor u computing work.
func computeLeg(pl platform.Platform, u int, work float64) float64 {
	return failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work))
}

// replicaFactor is the failure probability of one replica whose
// incoming, compute and outgoing legs have log-reliability lIn,
// LogRel(fComp) and lOut. The legs fold in failure.Serial's order,
// starting from 0.0 (so a zero-rate replica gives Serial's −0, not
// +0), and a stage multiplies its replicas' factors in Procs order as
// the parallel composition does: the floats are exactly those of
// ReplicaFailProb's product.
func replicaFactor(lIn, fComp, lOut float64) float64 {
	s := 0.0
	s += lIn
	s += failure.LogRel(fComp)
	s += lOut
	return -math.Expm1(s)
}

// replica is one entry of the full pass's scratch: a processor of the
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

// aggregate folds per-interval terms into a Score in ascending interval
// order — the exact accumulator sequence of the full evaluation, so
// recombining memoized terms is bit-identical to recomputing them.
func aggregate(terms []term) Score {
	var s Score
	commMax := 0.0
	for i := range terms {
		t := &terms[i]
		s.LogRel += t.logRel
		s.WorstLatency += t.worstCost + t.outTime
		if t.outTime > commMax {
			commMax = t.outTime
		}
		if t.worstCost > s.WorstPeriod {
			s.WorstPeriod = t.worstCost
		}
	}
	if commMax > s.WorstPeriod {
		s.WorstPeriod = commMax
	}
	return s
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

// The replica-factor cache. A replica's factor, replicaFactor of its
// three legs, is a pure function of (First, Last, u): the link legs
// are Links entries First and Last+1, and the compute leg reads the
// interval's work and u's rate and speed. Each Evaluator keeps a
// direct-mapped table from that key to the factor; a key that hashes
// to an occupied slot overwrites it. A hit returns the float a miss
// computed, so cached and recomputed factors are bit-identical by
// construction. Replica moves keep the interval's (First, Last), so
// their untouched replicas hit, and a walk revisits the same intervals
// often enough that most factors repeat within a restart.
const (
	factorBits  = 11
	factorSlots = 1 << factorBits // 16 bytes each: 32 KiB per Evaluator
)

// factorSlot is one cache entry; key 0 marks an empty slot.
type factorSlot struct {
	key uint64
	f   float64
}

// factorKey packs (first, last, u) as 24, 24 and 16 bits. Storing
// last+1 keeps every key nonzero, so a zeroed table starts empty. The
// packing is injective on instances with fewer than 2^24 tasks and at
// most 2^16 processors (NewEvaluator checks this; larger instances
// compute every factor).
func factorKey(first, last, u int) uint64 {
	return uint64(first)<<40 | uint64(last+1)<<16 | uint64(u)
}

// Evaluator scores neighbor mappings incrementally. Init performs one
// full scoring pass and memoizes the per-interval terms; Apply scores
// a neighbor by recomputing only the touched intervals' terms, and the
// caller then either Commits the neighbor (it became the current state)
// or Reverts it. Exactly one of Commit/Revert must follow every Apply.
//
// All scratch state, the replica-factor cache included, lives on the
// evaluator, so the Apply/Commit/Revert cycle allocates nothing once
// the term buffers reach steady-state capacity. An Evaluator is not
// safe for concurrent use; the search engine owns one per restart.
type Evaluator struct {
	c         chain.Chain
	pl        platform.Platform
	links     Links
	cur, next []term
	pending   bool
	keyed     bool // factorKey is injective on this instance
	// hits and misses count the replica factors served from the cache
	// and computed.
	hits, misses int
	factors      [factorSlots]factorSlot
}

// NewEvaluator returns an evaluator for one instance; links must be
// NewLinks(c, pl), built once per instance and shared by its
// evaluators. Call Init before the first Apply.
func NewEvaluator(c chain.Chain, pl platform.Platform, links Links) *Evaluator {
	return &Evaluator{c: c, pl: pl, links: links, keyed: len(c) < 1<<24 && pl.P() <= 1<<16}
}

// FactorCounts reports how many replica factors the evaluator has
// served from its cache (hits) and computed (misses) since it was
// built.
func (e *Evaluator) FactorCounts() (hits, misses int) { return e.hits, e.misses }

// factor returns the failure probability of replica u of interval iv,
// whose work is given: the cached float when the slot holds the key,
// else replicaFactor of its legs, which then takes the slot.
func (e *Evaluator) factor(iv interval.Interval, u int, work float64) float64 {
	if !e.keyed {
		e.misses++
		return replicaFactor(e.links[iv.First], computeLeg(e.pl, u, work), e.links[iv.Last+1])
	}
	key := factorKey(iv.First, iv.Last, u)
	s := &e.factors[(key*0x9E3779B97F4A7C15)>>(64-factorBits)]
	if s.key == key {
		e.hits++
		return s.f
	}
	e.misses++
	f := replicaFactor(e.links[iv.First], computeLeg(e.pl, u, work), e.links[iv.Last+1])
	*s = factorSlot{key: key, f: f}
	return f
}

// term computes the term of interval j of m.
func (e *Evaluator) term(m Mapping, j int) term {
	iv := m.Parts[j]
	work := m.Parts.Work(e.c, j)
	f := 1.0
	for _, u := range m.Procs[j] {
		f *= e.factor(iv, u, work)
	}
	return scoreTerm(e.pl, m.Procs[j], work, f, e.c.Out(iv.Last))
}

// Init scores m in full, commits its terms as the base state, and
// returns its Score. The mapping must be valid (the hot loop builds
// neighbors valid by construction, like EvaluateUnchecked's callers).
// The factor cache survives Init: it depends on the instance only.
func (e *Evaluator) Init(m Mapping) Score {
	e.pending = false
	e.cur = resizeTerms(e.cur, len(m.Parts))
	for j := range e.cur {
		e.cur[j] = e.term(m, j)
	}
	return aggregate(e.cur)
}

// Apply scores the neighbor m, which must differ from the committed
// mapping exactly as t describes. Terms for t's touched intervals are
// recomputed; every other term is reused bit-for-bit. The returned
// Score is bit-identical to EvaluateUnchecked(c, pl, m).Score().
func (e *Evaluator) Apply(m Mapping, t Touched) Score {
	if e.pending {
		panic("mapping: Evaluator.Apply without Commit/Revert of the previous Apply")
	}
	if len(e.cur) == 0 {
		panic("mapping: Evaluator.Apply before Init")
	}
	e.next = resizeTerms(e.next, len(m.Parts))
	for j := range e.next {
		if j == t.A || j == t.B {
			e.next[j] = e.term(m, j)
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
func resizeTerms(ts []term, n int) []term {
	if n <= cap(ts) {
		return ts[:n]
	}
	return append(ts[:cap(ts)], make([]term, n-cap(ts))...)
}
