package heur

import (
	"relpipe/internal/chain"
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
	M  mapping.Mapping
	Ev mapping.Eval
}

// meets applies the Options feasibility test on worst-case metrics.
func (o Options) meets(s Seed) bool {
	if o.Period > 0 && s.WorstPeriod > o.Period {
		return false
	}
	if o.Latency > 0 && s.WorstLatency > o.Latency {
		return false
	}
	return true
}

// Gen is a view of one Tables under one set of Options: it produces the
// heuristic candidates of every interval count of the instance through
// the tables' partition tables and seed memo.
type Gen struct {
	c    chain.Chain
	pl   platform.Platform
	opts Options
	t    *Tables
}

// NewGen returns a generator over t for interval counts
// 1..min(len(c), P). Tables that cannot serve it — nil, or built for a
// different chain length or a smaller interval range — are replaced by
// private tables of its own, so a mismatch costs a build, never a wrong
// answer.
func NewGen(c chain.Chain, pl platform.Platform, opts Options, t *Tables) *Gen {
	if !t.serves(c, pl) {
		t = NewTables(c, pl)
	}
	return &Gen{c: c, pl: pl, opts: opts, t: t}
}

// Partition returns the partition of candidate m: Heur-L's when
// latencyOriented, Heur-P's otherwise. ok is false when the heuristic
// has no m-interval partition.
func (g *Gen) Partition(m int, latencyOriented bool) (parts interval.Partition, ok bool) {
	var err error
	if latencyOriented {
		parts, err = g.t.heurL().Partition(m)
	} else if pt := g.t.heurP(); pt != nil {
		parts, err = pt.Partition(m)
	}
	return parts, parts != nil && err == nil
}

// run sweeps the candidates of the given orientations in order, each
// over every interval count, through t (private tables when t cannot
// serve the instance), and returns the first of the most reliable that
// meet the bounds. Only that winner is materialized: its partition, its
// seed's replica sets and their evaluation.
func run(c chain.Chain, pl platform.Platform, opts Options, t *Tables, orientations ...bool) (Result, bool, error) {
	if err := c.Validate(); err != nil {
		return Result{}, false, err
	}
	if err := pl.Validate(); err != nil {
		return Result{}, false, err
	}
	g := NewGen(c, pl, opts, t)
	var best Seed
	var bestM int
	var bestLatency, found bool
	for _, latencyOriented := range orientations {
		for m := 1; m <= maxIntervals(c, pl); m++ {
			s, ok, hit := g.Lookup(m, latencyOriented)
			if !hit {
				s, ok = g.Build(m, latencyOriented)
			}
			if ok && opts.meets(s) && (!found || s.LogRel > best.LogRel) {
				best, bestM, bestLatency, found = s, m, latencyOriented, true
			}
		}
	}
	if !found {
		return Result{}, false, nil
	}
	parts, _ := g.Partition(bestM, bestLatency)
	mp := mapping.Mapping{Parts: parts, Procs: best.Procs()}
	ev, err := mapping.Evaluate(c, pl, mp)
	if err != nil {
		return Result{}, false, err
	}
	return Result{M: mp, Ev: ev}, true, nil
}

// HeurP is the period-oriented heuristic: partitions come from the
// load-balancing dynamic program (Algorithm 4). It generates through t
// when t can serve the instance, else through private tables.
func HeurP(c chain.Chain, pl platform.Platform, opts Options, t *Tables) (Result, bool, error) {
	return run(c, pl, opts, t, false)
}

// HeurL is the latency-oriented heuristic: partitions cut the chain at
// the m-1 cheapest communications (Algorithm 3). Tables as for HeurP.
func HeurL(c chain.Chain, pl platform.Platform, opts Options, t *Tables) (Result, bool, error) {
	return run(c, pl, opts, t, true)
}

// Best runs both heuristics and returns the more reliable feasible
// result, Heur-P on a tie — the paper's "select the schedule having the
// best reliability". Tables as for HeurP.
func Best(c chain.Chain, pl platform.Platform, opts Options, t *Tables) (Result, bool, error) {
	return run(c, pl, opts, t, false, true)
}
