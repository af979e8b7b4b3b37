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

// scratch is one shard's per-partition working memory.
type scratch struct {
	rows, counts []int
	sf           []float64 // running stage products of the deep path
}

// newScratch returns scratch sized for any partition of the chain.
func (t *table) newScratch() *scratch {
	return &scratch{rows: make([]int, t.n), counts: make([]int, t.n), sf: make([]float64, t.n)}
}

// enumerate visits the partitions of shard s with at most P intervals,
// in index order, polling ctx every 512 partitions. visit receives the
// partition with its period and latency; scratch.rows is set for
// t.allocate.
func (t *table) enumerate(ctx context.Context, s par.Shard, sc *scratch, visit func(parts interval.Partition, period, latency float64)) error {
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
		period, latency := t.shape(parts, sc)
		visit(parts, period, latency)
		return true
	})
	return stop
}

// shape folds the allocation-independent criteria of a partition, the
// worst-case period and latency, in ascending interval order exactly as
// mapping.Evaluate's aggregation does. It records each interval's row
// in s for allocate.
func (t *table) shape(parts interval.Partition, s *scratch) (period, latency float64) {
	s.rows = s.rows[:len(parts)]
	commMax := 0.0
	for j, iv := range parts {
		i := iv.First*t.n + iv.Last
		s.rows[j] = i
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
	return period, latency
}

// allocate runs Algo-Alloc over the intervals shape recorded, leaves the
// replica counts in s.counts and returns the mapping's log-reliability.
// As in Theorem 4's greedy, each of the P−m spare processors goes to the
// interval with the largest gain, the lowest index winning ties, until
// every interval holds K replicas; the log-reliabilities then sum in
// ascending interval order.
func (t *table) allocate(s *scratch) float64 {
	counts := s.counts[:len(s.rows)]
	s.counts = counts
	for j := range counts {
		counts[j] = 1
	}
	if t.logRel == nil {
		return t.allocateDeep(s)
	}
	for remaining := t.procs - len(counts); remaining > 0; remaining-- {
		best, bestGain := -1, math.Inf(-1)
		for j, q := range counts {
			if q >= t.k {
				continue
			}
			if g := t.gain[s.rows[j]*t.k+q-1]; g > bestGain {
				best, bestGain = j, g
			}
		}
		if best < 0 {
			break // every interval is already at K replicas
		}
		counts[best]++
	}
	logRel := 0.0
	for j, q := range counts {
		logRel += t.logRel[s.rows[j]*t.k+q-1]
	}
	return logRel
}

// allocateDeep is allocate for replica bounds beyond maxTableDepth: the
// same greedy over running stage products, computing each gain as the
// table would have stored it.
func (t *table) allocateDeep(s *scratch) float64 {
	counts := s.counts
	sf := s.sf[:len(counts)]
	for j := range counts {
		sf[j] = t.rep[s.rows[j]]
	}
	for remaining := t.procs - len(counts); remaining > 0; remaining-- {
		best, bestGain := -1, math.Inf(-1)
		for j, q := range counts {
			if q >= t.k {
				continue
			}
			r := t.rep[s.rows[j]]
			if g := failure.LogRel(sf[j]*r) - failure.LogRel(sf[j]); g > bestGain {
				best, bestGain = j, g
			}
		}
		if best < 0 {
			break
		}
		counts[best]++
		sf[best] *= t.rep[s.rows[best]]
	}
	logRel := 0.0
	for j := range counts {
		logRel += failure.LogRel(sf[j])
	}
	return logRel
}
