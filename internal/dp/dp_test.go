package dp

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

// bruteOptimal exhaustively maximizes reliability over partitions and
// replica counts under a period bound, the reference for the DPs.
func bruteOptimal(c chain.Chain, pl platform.Platform, period float64) (float64, bool) {
	n := len(c)
	best := math.Inf(-1)
	found := false
	interval.Visit(n, func(parts interval.Partition) bool {
		m := len(parts)
		if m > pl.P() {
			return true
		}
		// Enumerate replica counts: each interval 1..K, sum <= p.
		counts := make([]int, m)
		var rec func(j, used int)
		rec = func(j, used int) {
			if j == m {
				mp := mapping.AssignSequential(parts, counts)
				ev, err := mapping.Evaluate(c, pl, mp)
				if err != nil {
					return
				}
				if period > 0 && ev.WorstPeriod > period {
					return
				}
				if ev.LogRel > best {
					best = ev.LogRel
					found = true
				}
				return
			}
			for q := 1; q <= pl.MaxReplicas && used+q <= pl.P(); q++ {
				counts[j] = q
				rec(j+1, used+q)
			}
		}
		rec(0, 0)
		return true
	})
	return best, found
}

func TestOptimizeReliabilityMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(5)
		c := chain.PaperRandom(r, n)
		p := 1 + r.IntN(6)
		pl := platform.Homogeneous(p, 1, r.Uniform(1e-3, 1e-1), 1, r.Uniform(1e-4, 1e-2), 1+r.IntN(3))
		m, ev, err := OptimizeReliability(c, pl)
		want, feasible := bruteOptimal(c, pl, 0)
		if err != nil {
			return !feasible
		}
		if err := m.Validate(c, pl); err != nil {
			return false
		}
		return feasible && math.Abs(ev.LogRel-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeReliabilityPeriodMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(5)
		c := chain.PaperRandom(r, n)
		p := 1 + r.IntN(6)
		pl := platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 1+r.IntN(3))
		period := r.Uniform(20, 300)
		m, ev, err := OptimizeReliabilityPeriodPar(context.Background(), c, pl, period, 1)
		want, feasible := bruteOptimal(c, pl, period)
		if err != nil {
			return !feasible
		}
		if ev.WorstPeriod > period+1e-9 {
			return false
		}
		if err := m.Validate(c, pl); err != nil {
			return false
		}
		return feasible && math.Abs(ev.LogRel-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeReliabilitySingleTask(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 0}}
	m, ev, err := OptimizeReliability(c, homPl(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 1 || len(m.Procs[0]) != 3 {
		t.Fatalf("mapping = %v, want one interval with K=3 replicas", m)
	}
	if ev.LogRel >= 0 {
		t.Fatalf("LogRel = %v, want < 0", ev.LogRel)
	}
}

func TestOptimizeRejectsHeterogeneous(t *testing.T) {
	pl := homPl(3)
	pl.Procs[0].Speed = 2
	_, _, err := OptimizeReliability(chain.Chain{{Work: 1, Out: 0}}, pl)
	if !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("err = %v, want ErrHeterogeneous", err)
	}
}

func TestOptimizePeriodInfeasible(t *testing.T) {
	// Period bound below every possible interval compute time.
	c := chain.Chain{{Work: 100, Out: 0}}
	_, _, err := OptimizeReliabilityPeriodPar(context.Background(), c, homPl(3), 1, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizePeriodCommBound(t *testing.T) {
	// A large communication in the middle forces the bound to fail even
	// though every compute interval fits.
	c := chain.Chain{{Work: 1, Out: 50}, {Work: 1, Out: 0}}
	// P = 10: single interval has W=2 <= 10 and internalizes the comm.
	m, ev, err := OptimizeReliabilityPeriodPar(context.Background(), c, homPl(4), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 1 {
		t.Fatalf("mapping = %v, want the comm internalized in one interval", m)
	}
	if ev.WorstPeriod > 10 {
		t.Fatalf("WP = %v > 10", ev.WorstPeriod)
	}
}

func TestMoreProcessorsNeverHurt(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(6)
		c := chain.PaperRandom(r, n)
		pl1 := homPl(3)
		pl2 := homPl(6)
		_, ev1, err1 := OptimizeReliability(c, pl1)
		_, ev2, err2 := OptimizeReliability(c, pl2)
		if err1 != nil || err2 != nil {
			return false
		}
		return ev2.LogRel >= ev1.LogRel-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTighterPeriodNeverImprovesReliability(t *testing.T) {
	r := rng.New(7)
	c := chain.PaperRandom(r, 8)
	pl := homPl(6)
	prev := math.Inf(-1)
	// Increasing period bounds: reliability must be non-decreasing.
	for _, P := range []float64{60, 80, 120, 200, 400, 0} {
		_, ev, err := OptimizeReliabilityPeriodPar(context.Background(), c, pl, P, 1)
		if err != nil {
			continue
		}
		if ev.LogRel < prev-1e-12 {
			t.Fatalf("looser period bound %v decreased reliability: %v -> %v", P, prev, ev.LogRel)
		}
		prev = ev.LogRel
	}
}

func TestPeriodCandidatesContainOptimum(t *testing.T) {
	r := rng.New(11)
	c := chain.PaperRandom(r, 6)
	pl := homPl(5)
	cands := PeriodCandidates(c, pl)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatal("candidates not strictly sorted")
		}
	}
	m, ev, err := MinPeriodForReliabilityPar(context.Background(), c, pl, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c, pl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cd := range cands {
		if math.Abs(cd-ev.WorstPeriod) < 1e-9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("optimal period %v is not a candidate", ev.WorstPeriod)
	}
}

func TestMinPeriodForReliabilityIsMinimal(t *testing.T) {
	r := rng.New(13)
	c := chain.PaperRandom(r, 7)
	pl := homPl(5)
	// Ask for the best achievable reliability, then the minimum period
	// achieving it; any strictly smaller candidate must be infeasible.
	_, best, err := OptimizeReliability(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	target := best.LogRel * 1.5 // a weaker bound (logRel < 0): 1.5x further from 0
	_, ev, err := MinPeriodForReliabilityPar(context.Background(), c, pl, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range PeriodCandidates(c, pl) {
		if cd >= ev.WorstPeriod-1e-9 {
			break
		}
		_, e2, err := OptimizeReliabilityPeriodPar(context.Background(), c, pl, cd, 1)
		if err == nil && e2.LogRel >= target {
			t.Fatalf("period %v < %v also achieves the reliability bound", cd, ev.WorstPeriod)
		}
	}
}

func TestMinPeriodInfeasibleReliability(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 0}}
	_, _, err := MinPeriodForReliabilityPar(context.Background(), c, homPl(2), 0.1, 1) // logRel > 0 impossible
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestHeurLPartitionCutsCheapestComms(t *testing.T) {
	c := chain.Chain{
		{Work: 1, Out: 9}, {Work: 1, Out: 1}, {Work: 1, Out: 5},
		{Work: 1, Out: 2}, {Work: 1, Out: 0},
	}
	// m=3: cut after tasks with the two smallest outs: task 1 (o=1) and
	// task 3 (o=2).
	parts, err := HeurLPartition(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4}
	got := parts.Ends()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ends = %v, want %v", got, want)
		}
	}
}

func TestHeurLPartitionSingle(t *testing.T) {
	c := chain.PaperRandom(rng.New(1), 5)
	parts, err := HeurLPartition(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("m=1 gave %d intervals", len(parts))
	}
}

func TestHeurLPartitionTies(t *testing.T) {
	// All comms equal: cuts must go to the earliest positions.
	c := chain.Chain{{Work: 1, Out: 3}, {Work: 1, Out: 3}, {Work: 1, Out: 3}, {Work: 1, Out: 0}}
	parts, err := HeurLPartition(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := parts.Ends()
	want := []int{0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ends = %v, want %v", got, want)
		}
	}
}

func TestHeurLPartitionRange(t *testing.T) {
	c := chain.PaperRandom(rng.New(2), 4)
	if _, err := HeurLPartition(c, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := HeurLPartition(c, 5); err == nil {
		t.Fatal("m>n accepted")
	}
}

func TestHeurPPartitionBalances(t *testing.T) {
	c := chain.Chain{
		{Work: 10, Out: 1}, {Work: 10, Out: 1}, {Work: 10, Out: 1}, {Work: 10, Out: 0},
	}
	parts, err := HeurPPartition(c, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range parts {
		if w := parts.Work(c, j); w != 20 {
			t.Fatalf("interval %d work = %v, want perfectly balanced 20", j, w)
		}
	}
}

func TestHeurPPartitionOptimalPeriod(t *testing.T) {
	// The DP must reach the optimal m-interval period: compare against
	// exhaustive enumeration over partitions with exactly m intervals.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(7)
		c := chain.PaperRandom(r, n)
		m := 1 + r.IntN(n)
		parts, err := HeurPPartition(c, m, 1, 1)
		if err != nil {
			return false
		}
		got := periodOf(c, parts)
		best := math.Inf(1)
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			if v := periodOf(c, pp); v < best {
				best = v
			}
			return true
		})
		return math.Abs(got-best) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// periodOf computes max_j max(W_j, o_{l_j}) with unit speed/bandwidth.
func periodOf(c chain.Chain, parts interval.Partition) float64 {
	v := 0.0
	for j := range parts {
		if w := parts.Work(c, j); w > v {
			v = w
		}
		if o := parts.Out(c, j); o > v {
			v = o
		}
	}
	return v
}

func TestHeurPPartitionSpeedScaling(t *testing.T) {
	// With very slow comms (tiny bandwidth), cuts become expensive: at
	// high speed the DP must still return a valid partition.
	c := chain.PaperRandom(rng.New(3), 8)
	parts, err := HeurPPartition(c, 3, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := parts.Validate(8); err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("intervals = %d, want 3", len(parts))
	}
}

func TestHeurPPartitionRejects(t *testing.T) {
	c := chain.PaperRandom(rng.New(4), 4)
	if _, err := HeurPPartition(c, 0, 1, 1); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := HeurPPartition(c, 1, 0, 1); err == nil {
		t.Fatal("speed=0 accepted")
	}
	if _, err := HeurPPartition(c, 1, 1, -1); err == nil {
		t.Fatal("bandwidth<0 accepted")
	}
}

func TestPartitionsAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(12)
		c := chain.PaperRandom(r, n)
		m := 1 + r.IntN(n)
		pl, err := HeurLPartition(c, m)
		if err != nil || pl.Validate(n) != nil || len(pl) != m {
			return false
		}
		pp, err := HeurPPartition(c, m, 1, 1)
		if err != nil || pp.Validate(n) != nil || len(pp) != m {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// HeurLPartition is Algorithm 3 for one interval count: a table built
// for a single Partition call.
func HeurLPartition(c chain.Chain, m int) (interval.Partition, error) {
	return NewHeurLTable(c).Partition(m)
}
