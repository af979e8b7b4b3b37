package heur

import (
	"math"
	"sync"
	"unsafe"

	"relpipe/internal/alloc"
	"relpipe/internal/mapping"
)

// Seed is one heuristic candidate reduced to what the search seed pool
// scores: the worst-case period and latency and the log-reliability of
// its evaluation, and the replica sets of its §7.2 allocation in flat
// form. Its partition is the candidate's own (Gen.Partition).
type Seed struct {
	WorstPeriod, WorstLatency, LogRel float64
	reps                              []int32 // per interval: the replica count, then the processors
}

func newSeed(ev mapping.Eval, procs [][]int) Seed {
	n := len(procs)
	for _, ps := range procs {
		n += len(ps)
	}
	reps := make([]int32, 0, n)
	for _, ps := range procs {
		reps = append(reps, int32(len(ps)))
		for _, u := range ps {
			reps = append(reps, int32(u))
		}
	}
	return Seed{WorstPeriod: ev.WorstPeriod, WorstLatency: ev.WorstLatency, LogRel: ev.LogRel, reps: reps}
}

// Procs returns the replica sets, one fresh slice per interval.
func (s Seed) Procs() [][]int {
	var procs [][]int
	for i := 0; i < len(s.reps); {
		k := int(s.reps[i])
		ps := make([]int, k)
		for r := range ps {
			ps[r] = int(s.reps[i+1+r])
		}
		procs = append(procs, ps)
		i += 1 + k
	}
	return procs
}

// Cost returns the total price of the replica processors under prices,
// summed interval by interval in replica order — the order of a loop
// over Procs(), so the float is the same.
func (s Seed) Cost(prices []float64) float64 {
	c := 0.0
	for i := 0; i < len(s.reps); {
		k := int(s.reps[i])
		for _, u := range s.reps[i+1 : i+1+k] {
			c += prices[u]
		}
		i += 1 + k
	}
	return c
}

// Lookup returns candidate (m, orientation) under g's period bound from
// the seed memo of g's tables: ok reports a feasible candidate, found
// that the memo holds one for the bound's cell. found is false on a
// miss, and always under an Alive mask (the memo is not keyed by it).
func (g *Gen) Lookup(m int, latencyOriented bool) (s Seed, ok, found bool) {
	if g.opts.Alive != nil {
		return Seed{}, false, false
	}
	return g.t.memo.lookup(memoKeyOf(m, latencyOriented, g.opts.Period), g.opts.Period)
}

// Build computes candidate (m, orientation) as a Seed — its partition,
// the §7.2 allocation under g's period bound, and the evaluation — and
// records it in the seed memo whenever Lookup would consult it. ok is
// false when the candidate does not exist.
func (g *Gen) Build(m int, latencyOriented bool) (Seed, bool) {
	sp := memoSpan{cell: alloc.AllBounds}
	if parts, ok := g.Partition(m, latencyOriented); ok {
		mp, cell, err := alloc.GreedyHet(g.c, g.pl, parts, g.opts.Period, g.opts.Alive)
		sp.cell = cell
		if err == nil {
			if ev, err := mapping.Evaluate(g.c, g.pl, mp); err == nil {
				sp.seed, sp.ok = newSeed(ev, mp.Procs), true
			}
		}
	}
	if g.opts.Alive == nil {
		g.t.bytes.Add(g.t.memo.insert(memoKeyOf(m, latencyOriented, g.opts.Period), g.opts.Period, sp))
	}
	return sp.seed, sp.ok
}

// seedMemo keeps the seeds built over one Tables value, so a seed is
// built once per period-bound cell rather than once per request. A
// candidate's partition does not depend on the bound, and its
// allocation depends on it only through alloc.GreedyHet's tests, so the
// certificate cell GreedyHet reports bounds every period on which the
// seed is the same. Each key (interval count, orientation) keeps its
// cells sorted and disjoint — two certificate cells that share a bound
// replay the same run, so they are equal — and bounds <= 0, the
// unconstrained allocation, have one cell of their own.
type seedMemo struct {
	mu    sync.RWMutex
	cells map[memoKey][]memoSpan
}

type memoKey struct {
	m         int
	latency   bool
	unbounded bool
}

// memoKeyOf keys candidate (m, orientation) under bound. Every bound
// GreedyHet treats as unconstrained — <= 0, and NaN — shares the one
// unbounded cell.
func memoKeyOf(m int, latencyOriented bool, bound float64) memoKey {
	return memoKey{m: m, latency: latencyOriented, unbounded: !(bound > 0)}
}

// memoSpan is one cell of one key: the seed every bound in cell gets,
// or ok false when no candidate exists there.
type memoSpan struct {
	cell alloc.Cell
	seed Seed
	ok   bool
}

// memoKeyBytes approximates the map's cost per key beyond the span
// array: the bucket slot of the key and the slice header.
const memoKeyBytes = int64(unsafe.Sizeof(memoKey{}) + unsafe.Sizeof([]memoSpan{}) + 8)

var unboundedCell = alloc.Cell{Lo: math.Inf(-1), Hi: math.Inf(1)}

// find returns the index of the first span whose cell ends above bound,
// and whether that span contains bound.
func find(spans []memoSpan, bound float64) (int, bool) {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spans[mid].cell.Hi > bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, lo < len(spans) && spans[lo].cell.Contains(bound)
}

func (sm *seedMemo) lookup(k memoKey, bound float64) (Seed, bool, bool) {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	spans := sm.cells[k]
	if k.unbounded {
		bound = 0
	}
	i, found := find(spans, bound)
	if !found {
		return Seed{}, false, false
	}
	return spans[i].seed, spans[i].ok, true
}

// insert records sp as the cell of bound under k and returns the bytes
// the memo grew by.
func (sm *seedMemo) insert(k memoKey, bound float64, sp memoSpan) int64 {
	if k.unbounded {
		bound, sp.cell = 0, unboundedCell
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	spans, known := sm.cells[k]
	i, found := find(spans, bound)
	if found {
		return 0 // a concurrent build of the same cell got here first
	}
	if sm.cells == nil {
		sm.cells = make(map[memoKey][]memoSpan)
	}
	before := cap(spans)
	spans = append(spans, memoSpan{})
	copy(spans[i+1:], spans[i:])
	spans[i] = sp
	sm.cells[k] = spans
	grown := int64(cap(spans)-before)*int64(unsafe.Sizeof(memoSpan{})) + 4*int64(cap(sp.seed.reps))
	if !known {
		grown += memoKeyBytes
	}
	return grown
}
