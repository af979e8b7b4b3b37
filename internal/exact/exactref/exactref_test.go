package exactref

import (
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
	// Large failure rates make reliability differences visible.
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func TestGreedyRejectsHeterogeneous(t *testing.T) {
	pl := homPl(4)
	pl.Procs[0].Speed = 2
	c := chain.Chain{{Work: 1, Out: 0}}
	if _, err := Greedy(c, pl, interval.Single(1)); err == nil {
		t.Fatal("Greedy accepted heterogeneous platform")
	}
}

func TestGreedyInfeasible(t *testing.T) {
	c := chain.Chain{{Work: 1, Out: 1}, {Work: 1, Out: 1}, {Work: 1, Out: 0}}
	_, err := Greedy(c, homPl(2), interval.FromEnds([]int{0, 1, 2}))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyUsesAllProcessorsUpToK(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 1}, {Work: 20, Out: 0}}
	pl := homPl(6) // 2 intervals * K=3 = 6: everything replicated K times
	m, err := Greedy(c, pl, interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for j, ps := range m.Procs {
		if len(ps) != 3 {
			t.Fatalf("interval %d got %d replicas, want K=3", j, len(ps))
		}
	}
}

func TestGreedyRespectsK(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 0}}
	pl := homPl(6) // one interval, 6 processors, K=3
	m, err := Greedy(c, pl, interval.Single(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Procs[0]) != 3 {
		t.Fatalf("interval got %d replicas, want exactly K=3", len(m.Procs[0]))
	}
}

func TestGreedyFavorsWeakestStage(t *testing.T) {
	// Interval 0 has much more work than interval 1; the third processor
	// must reinforce interval 0.
	c := chain.Chain{{Work: 100, Out: 1}, {Work: 1, Out: 0}}
	pl := homPl(3)
	m, err := Greedy(c, pl, interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Procs[0]) != 2 || len(m.Procs[1]) != 1 {
		t.Fatalf("replicas = %d/%d, want 2/1", len(m.Procs[0]), len(m.Procs[1]))
	}
}

func TestGreedyMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(4)
		c := chain.PaperRandom(r, n)
		p := n + r.IntN(3)
		pl := platform.Homogeneous(p, 1, r.Uniform(1e-4, 1e-1), 1, r.Uniform(1e-5, 1e-2), 1+r.IntN(3))
		var parts interval.Partition
		interval.VisitM(n, 1+r.IntN(min(n, p)), func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.5) // pick a pseudo-random partition
		})
		g, err := Greedy(c, pl, parts)
		if err != nil {
			_, berr := BruteForce(c, pl, parts)
			return berr != nil
		}
		b, err := BruteForce(c, pl, parts)
		if err != nil {
			return false
		}
		ge, _ := mapping.Evaluate(c, pl, g)
		be, _ := mapping.Evaluate(c, pl, b)
		// Greedy must reach the brute-force optimum (Theorem 4).
		return ge.LogRel >= be.LogRel-1e-12*math.Abs(be.LogRel)-1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceRejectsBigPlatforms(t *testing.T) {
	c := chain.Chain{{Work: 1, Out: 0}}
	pl := homPl(11)
	if _, err := BruteForce(c, pl, interval.Single(1)); err == nil {
		t.Fatal("BruteForce accepted p=11")
	}
}
