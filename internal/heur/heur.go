package heur

import (
	"relpipe/internal/alloc"
	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// Options configures a heuristic run.
type Options struct {
	// Period and Latency bound the mapping; values <= 0 are
	// unconstrained. Feasibility uses the worst-case metrics of §7 (on
	// homogeneous platforms expected and worst-case coincide).
	Period, Latency float64
	// Alive optionally restricts the allocation to the processors u
	// with Alive[u] true; nil admits every processor.
	Alive []bool
}

// Result is a feasible mapping produced by a heuristic.
type Result struct {
	M         mapping.Mapping
	Ev        mapping.Eval
	Intervals int // the interval count m that produced the winner
}

// meets applies the Options feasibility test on worst-case metrics.
func (o Options) meets(ev mapping.Eval) bool {
	if o.Period > 0 && ev.WorstPeriod > o.Period {
		return false
	}
	if o.Latency > 0 && ev.WorstLatency > o.Latency {
		return false
	}
	return true
}

// finishCandidate is the shared tail of Gen.Candidate and Gen.Build: the
// §7.2 allocation plus the evaluation of the partitioned chain, with the
// allocation's period-bound cell (alloc.GreedyHet).
func finishCandidate(c chain.Chain, pl platform.Platform, parts interval.Partition, m int, opts Options) (Result, alloc.Cell, bool) {
	mp, cell, err := alloc.GreedyHet(c, pl, parts, opts.Period, opts.Alive)
	if err != nil {
		return Result{}, cell, false
	}
	ev, err := mapping.Evaluate(c, pl, mp)
	if err != nil {
		return Result{}, cell, false
	}
	return Result{M: mp, Ev: ev, Intervals: m}, cell, true
}

// Tables bundles the two partition DP tables (Heur-P's Algorithm 4
// table and Heur-L's communication ordering) pre-built for one
// instance, plus a memo of the seeds generators built over them (see
// Gen.Lookup). The tables depend only on the chain and the platform —
// never on period/latency bounds or the Alive mask — and are
// immutable after BuildTables; the memo is internally synchronized. So
// one Tables value can serve every request against the same instance
// concurrently. This is the unit the service's table tier keeps per
// instance across requests.
type Tables struct {
	pTable *dp.HeurPTable
	pErr   bool
	lTable *dp.HeurLTable
	n      int // chain length the tables were built for
	maxM   int // largest interval count the Heur-P table supports
	memo   seedMemo
}

// Bytes returns the heap footprint of the tables and their seed memo,
// the quantity the service's table tier budgets. It grows as the memo
// fills.
func (t *Tables) Bytes() int64 {
	b := t.lTable.Bytes() + t.memo.bytes.Load()
	if t.pTable != nil {
		b += t.pTable.Bytes()
	}
	return b
}

// BuildTables eagerly builds both partition tables for the instance,
// for interval counts 1..min(len(c), P). A failed Heur-P build is
// recorded rather than returned — Gen treats it exactly like the lazy
// build failing, ruling out Heur-P candidates while Heur-L still runs.
func BuildTables(c chain.Chain, pl platform.Platform) *Tables {
	maxM := len(c)
	if pl.P() < maxM {
		maxM = pl.P()
	}
	t := &Tables{n: len(c), maxM: maxM, lTable: dp.NewHeurLTable(c)}
	var err error
	t.pTable, err = dp.NewHeurPTable(c, maxM, meanSpeed(pl), pl.Bandwidth)
	t.pErr = err != nil
	return t
}

// WithTables installs pre-built shared tables into the generator,
// skipping its lazy per-instance builds. Tables that cannot serve this
// generator — built for a different chain length or a smaller interval
// range — are ignored and the lazy path is kept; the caller remains
// responsible for only sharing tables across requests with the same
// canonical instance (HeurPTable partitions are bit-identical for any
// m ≤ the build-time maxM, so a larger range is fine). Returns g.
func (g *Gen) WithTables(t *Tables) *Gen {
	if t == nil || t.n != len(g.c) || t.maxM < g.maxM {
		return g
	}
	g.pTable, g.pErr, g.lTable, g.memo = t.pTable, t.pErr, t.lTable, &t.memo
	return g
}

// Gen produces heuristic candidates for many interval counts of one
// instance. Heur-P's partition DP (Algorithm 4) only depends on the
// largest count requested, and Heur-L's communication ordering is
// count-independent, so Gen builds each table once — lazily, on the
// first candidate of that orientation — and reuses it. The heuristic
// sweep (HeurP/HeurL), the search seed pool and the experiment harness
// all generate through Gen.
type Gen struct {
	c      chain.Chain
	pl     platform.Platform
	opts   Options
	maxM   int
	pTable *dp.HeurPTable
	pErr   bool // the table build itself failed; every Heur-P count is out
	lTable *dp.HeurLTable
	memo   *seedMemo // the shared tables' seed memo; nil without them
}

// NewGen returns a generator for interval counts 1..maxM; maxM must be
// within [1, min(n, P)] as usual.
func NewGen(c chain.Chain, pl platform.Platform, maxM int, opts Options) *Gen {
	return &Gen{c: c, pl: pl, opts: opts, maxM: maxM}
}

// Candidate builds the single candidate mapping of one heuristic for
// interval count m ≤ maxM: the partition (Heur-L when latencyOriented,
// Heur-P otherwise), the §7.2 allocation, and its evaluation — without
// applying the feasibility filter.
func (g *Gen) Candidate(m int, latencyOriented bool) (Result, bool) {
	parts, ok := g.Partition(m, latencyOriented)
	if !ok {
		return Result{}, false
	}
	res, _, ok := finishCandidate(g.c, g.pl, parts, m, g.opts)
	return res, ok
}

// Partition returns the partition of candidate m: Heur-L's when
// latencyOriented, Heur-P's otherwise. ok is false when the heuristic
// has no m-interval partition.
func (g *Gen) Partition(m int, latencyOriented bool) (parts interval.Partition, ok bool) {
	var err error
	if latencyOriented {
		if g.lTable == nil {
			g.lTable = dp.NewHeurLTable(g.c)
		}
		parts, err = g.lTable.Partition(m)
	} else {
		if g.pTable == nil && !g.pErr {
			g.pTable, err = dp.NewHeurPTable(g.c, g.maxM, meanSpeed(g.pl), g.pl.Bandwidth)
			g.pErr = err != nil
		}
		if g.pErr {
			return nil, false
		}
		parts, err = g.pTable.Partition(m)
	}
	return parts, err == nil
}

// run drives the two-step scheme shared by both heuristics.
func run(c chain.Chain, pl platform.Platform, opts Options, latencyOriented bool) (Result, bool, error) {
	if err := c.Validate(); err != nil {
		return Result{}, false, err
	}
	if err := pl.Validate(); err != nil {
		return Result{}, false, err
	}
	maxM := len(c)
	if pl.P() < maxM {
		maxM = pl.P()
	}
	g := NewGen(c, pl, maxM, opts)
	var best Result
	found := false
	for m := 1; m <= maxM; m++ {
		res, ok := g.Candidate(m, latencyOriented)
		if !ok || !opts.meets(res.Ev) {
			continue
		}
		if !found || res.Ev.LogRel > best.Ev.LogRel {
			best = res
			found = true
		}
	}
	return best, found, nil
}

// meanSpeed returns the average processor speed, the representative speed
// Heur-P's partition DP uses to trade compute time against communication
// time on heterogeneous platforms (on homogeneous ones it is the exact
// speed).
func meanSpeed(pl platform.Platform) float64 {
	s := 0.0
	for _, p := range pl.Procs {
		s += p.Speed
	}
	return s / float64(pl.P())
}

// HeurP is the period-oriented heuristic: partitions come from the
// load-balancing dynamic program (Algorithm 4).
func HeurP(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	return run(c, pl, opts, false)
}

// HeurL is the latency-oriented heuristic: partitions cut the chain at
// the m-1 cheapest communications (Algorithm 3).
func HeurL(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	return run(c, pl, opts, true)
}

// Best runs both heuristics and returns the more reliable feasible
// result, the paper's "select the schedule having the best reliability".
func Best(c chain.Chain, pl platform.Platform, opts Options) (Result, bool, error) {
	rp, okP, err := HeurP(c, pl, opts)
	if err != nil {
		return Result{}, false, err
	}
	rl, okL, err := HeurL(c, pl, opts)
	if err != nil {
		return Result{}, false, err
	}
	switch {
	case okP && okL:
		if rp.Ev.LogRel >= rl.Ev.LogRel {
			return rp, true, nil
		}
		return rl, true, nil
	case okP:
		return rp, true, nil
	case okL:
		return rl, true, nil
	default:
		return Result{}, false, nil
	}
}
