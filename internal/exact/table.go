package exact

import (
	"context"
	"math"
	"math/bits"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/par"
	"relpipe/internal/platform"
)

// maxTableDepth bounds the replica dimension of the term table. Beyond
// it (K and P both larger) Algo-Alloc keeps running stage products per
// partition instead, so a request naming thousands of processors cannot
// make the table allocate n²·K floats.
const maxTableDepth = 64

// table holds every per-interval term the enumeration reads, for one
// instance on a homogeneous platform. On such a platform each §4
// criterion of a mapping is a sum or a max of per-interval terms, and a
// term depends only on the interval's (first task, last task) and its
// replica count q (Benoit, Rehn-Sonigo and Robert, arXiv 0711.1231). So
// one table answers every partition: Algo-Alloc and the aggregate fold
// read it, and (up to maxTableDepth replicas) no partition calls a
// transcendental.
//
// The entries are computed by the functions mapping.Evaluate and
// Algo-Alloc call, in the same order, so every float equals theirs bit
// for bit:
//   - work is summed task by task from first, the sequence chain.Work
//     runs;
//   - the stage failure probability with q replicas is 1·r·…·r (q
//     factors of mapping.ReplicaFailProb), the product
//     mapping.StageFailProb forms, since every processor of a
//     homogeneous platform yields the same r;
//   - gain is failure.LogRel(sf·r) − failure.LogRel(sf), Algo-Alloc's
//     log-reliability ratio, which is the difference of two adjacent
//     logRel entries.
//
// Rows are indexed first*n+last.
type table struct {
	n     int
	procs int // processor count P
	k     int // replica bound min(K, P): no interval receives more
	// Per row: WorstCost, and the failure probability r of one replica.
	cost, rep []float64
	outTime   []float64 // [last]: CommTime of the interval's output
	// [row*k + q-1]: LogRel with q replicas, and the gain of replica
	// q+1. Both nil when k > maxTableDepth.
	logRel, gain []float64
}

// newTable fills the table of c on the homogeneous platform pl.
func newTable(c chain.Chain, pl platform.Platform) *table {
	n := len(c)
	t := &table{
		n: n, procs: pl.P(), k: min(pl.MaxReplicas, pl.P()),
		cost:    make([]float64, n*n),
		rep:     make([]float64, n*n),
		outTime: make([]float64, n),
	}
	if t.k <= maxTableDepth {
		t.logRel = make([]float64, n*n*t.k)
		t.gain = make([]float64, n*n*t.k)
	}
	for last := range n {
		t.outTime[last] = pl.CommTime(c.Out(last))
	}
	one := []int{0}
	for first := range n {
		work := 0.0
		for last := first; last < n; last++ {
			work += c[last].Work
			i := first*n + last
			t.cost[i] = mapping.WorstCost(pl, one, work)
			t.rep[i] = mapping.ReplicaFailProb(pl, 0, work, c.Out(first-1), c.Out(last))
			if t.logRel == nil {
				continue
			}
			rel := t.logRel[i*t.k : (i+1)*t.k]
			sf := 1.0
			for q := range rel {
				sf *= t.rep[i]
				rel[q] = failure.LogRel(sf)
			}
			gain := t.gain[i*t.k : (i+1)*t.k]
			for q := 0; q+1 < t.k; q++ {
				gain[q] = rel[q+1] - rel[q]
			}
		}
	}
	return t
}

// binom holds the binomial coefficients C(a, b) for a below 30, the
// most cut positions interval.VisitRange enumerates.
var binom = func() (b [30][30]int) {
	for a := range b {
		b[a][0] = 1
		for k := 1; k <= a; k++ {
			b[a][k] = b[a-1][k-1] + b[a-1][k]
		}
	}
	return b
}()

// below counts the partitions with index under x that the enumeration
// visits, those with at most P intervals, and the intervals they hold
// in total. A partition's index is its cut mask (see
// interval.VisitRange), so it has popcount+1 intervals. Every mask
// under x agrees with x above some set bit b of x, has b clear, and
// takes any j of the b lower bits: C(b, j) masks with ones+j cuts,
// where ones counts x's set bits above b.
func (t *table) below(x int) (count, intervals int) {
	ones := 0
	for b := bits.Len(uint(x)) - 1; b >= 0; b-- {
		if x&(1<<b) == 0 {
			continue
		}
		for j := 0; j <= b && ones+j < t.procs; j++ {
			count += binom[b][j]
			intervals += binom[b][j] * (ones + j + 1)
		}
		ones++
	}
	return count, intervals
}

// Greedy is one shard's Algo-Alloc state over the partition the
// enumeration is visiting: its intervals' table rows and replica
// counts. Every visit starts from one replica per interval; Step grants
// the next replica and LogRel folds the current counts.
type Greedy struct {
	t            *table
	rows, counts []int
	sf           []float64 // running stage products of the deep path
}

// newGreedy returns a Greedy sized for any partition of the chain.
func (t *table) newGreedy() *Greedy {
	return &Greedy{t: t, rows: make([]int, t.n), counts: make([]int, t.n), sf: make([]float64, t.n)}
}

// Step is one move of Theorem 4's greedy: it grants one more replica to
// the interval with the largest log-reliability gain, the lowest index
// winning ties (strict >), and returns that interval and its gain. It
// returns −1 and −Inf when no interval takes one: every interval holds
// min(K, P) replicas, or no gain compares above −Inf (NaN gains of
// certain-failure stages never win).
//
// Up to maxTableDepth replicas the gains come from the table; beyond
// it Step keeps running stage products and computes each gain as the
// table would have stored it.
func (g *Greedy) Step() (int, float64) {
	t := g.t
	best, bestGain := -1, math.Inf(-1)
	if t.gain != nil {
		for j, q := range g.counts {
			if q >= t.k {
				continue
			}
			if gain := t.gain[g.rows[j]*t.k+q-1]; gain > bestGain {
				best, bestGain = j, gain
			}
		}
	} else {
		for j, q := range g.counts {
			if q >= t.k {
				continue
			}
			sf := g.sf[j]
			if gain := failure.LogRel(sf*t.rep[g.rows[j]]) - failure.LogRel(sf); gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best >= 0 {
			g.sf[best] *= t.rep[g.rows[best]]
		}
	}
	if best >= 0 {
		g.counts[best]++
	}
	return best, bestGain
}

// LogRel returns the visited partition's log-reliability at the
// current counts: the stage log-reliabilities summed in ascending
// interval order, as mapping.Evaluate sums them.
func (g *Greedy) LogRel() float64 {
	t := g.t
	logRel := 0.0
	if t.logRel == nil {
		for _, sf := range g.sf[:len(g.counts)] {
			logRel += failure.LogRel(sf)
		}
		return logRel
	}
	for j, q := range g.counts {
		logRel += t.logRel[g.rows[j]*t.k+q-1]
	}
	return logRel
}

// allocate runs Algo-Alloc to the end: each of the P−m spare processors
// goes to the interval Step picks, until every interval is saturated.
// It returns the mapping's log-reliability.
func (g *Greedy) allocate() float64 {
	for spare := g.t.procs - len(g.counts); spare > 0; spare-- {
		if j, _ := g.Step(); j < 0 {
			break
		}
	}
	return g.LogRel()
}

// enumerate visits the partitions of shard s with at most P intervals,
// in index order, polling ctx every 512 partitions. visit receives the
// partition with its period and latency; g is reset to it, one replica
// per interval.
func (t *table) enumerate(ctx context.Context, s par.Shard, g *Greedy, visit func(parts interval.Partition, period, latency float64)) error {
	var tick int
	var stop error
	interval.VisitRange(t.n, s.Lo, s.Hi, func(parts interval.Partition) bool {
		if tick++; tick&511 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return false
			}
		}
		if len(parts) > t.procs {
			return true // not enough processors for one per interval
		}
		period, latency := t.shape(parts, g)
		visit(parts, period, latency)
		return true
	})
	return stop
}

// shape folds the allocation-independent criteria of a partition, the
// worst-case period and latency, in ascending interval order exactly as
// mapping.Evaluate's aggregation does. It resets g to the partition:
// each interval's row and one replica (and, on the deep path, its
// one-replica stage product).
func (t *table) shape(parts interval.Partition, g *Greedy) (period, latency float64) {
	m := len(parts)
	g.rows, g.counts = g.rows[:m], g.counts[:m]
	commMax := 0.0
	for j, iv := range parts {
		i := iv.First*t.n + iv.Last
		g.rows[j] = i
		g.counts[j] = 1
		cost, out := t.cost[i], t.outTime[iv.Last]
		latency += cost + out
		if out > commMax {
			commMax = out
		}
		if cost > period {
			period = cost
		}
	}
	if commMax > period {
		period = commMax
	}
	if t.logRel == nil {
		for j, i := range g.rows {
			g.sf[j] = t.rep[i]
		}
	}
	return period, latency
}

// Sweep is the partition engine of every homogeneous enumerative
// solver: OptimalPar, the min-cost solver of internal/cost and the
// shared-platform curves of internal/multichain. It enumerates the
// partitions of c with at most P intervals on the homogeneous platform
// pl, sharded over contiguous index ranges on up to
// par.Degree(parallelism) goroutines, and polls ctx (nil = background).
//
// Each shard starts from start() and calls visit, in index order, with
// its state, the partition, its worst-case period and latency, and a
// Greedy at one replica per interval. The shard states come back in
// shard order, so a caller that merges them under the strict comparison
// its visit uses picks what a sequential run would, at every degree.
// Each caller folds the greedy's steps itself, so its floats stay those
// of its own per-partition loop.
func Sweep[S any](ctx context.Context, c chain.Chain, pl platform.Platform, parallelism int,
	start func() S, visit func(s *S, g *Greedy, parts interval.Partition, period, latency float64)) ([]S, error) {
	if err := validate(c, pl); err != nil {
		return nil, err
	}
	t := newTable(c, pl)
	return par.MapShards(ctx, parallelism, interval.Count(t.n), func(ctx context.Context, sh par.Shard) (S, error) {
		s, g := start(), t.newGreedy()
		err := t.enumerate(ctx, sh, g, func(parts interval.Partition, period, latency float64) {
			visit(&s, g, parts, period, latency)
		})
		return s, err
	})
}
