package alloc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	// Large failure rates make reliability differences visible.
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGreedyHetSeedsFastProcessorsOnLongIntervals(t *testing.T) {
	// Two intervals, works 100 and 10; two processors, speeds 10 and 1.
	// The fast processor (lowest λ/s) seeds the longest interval.
	c := chain.Chain{{Work: 100, Out: 1}, {Work: 10, Out: 0}}
	pl := platform.Platform{
		Procs: []platform.Processor{
			{Speed: 1, FailRate: 1e-6},
			{Speed: 10, FailRate: 1e-6},
		},
		Bandwidth: 1, LinkFailRate: 1e-6, MaxReplicas: 3,
	}
	parts := interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}}
	m, _, err := GreedyHet(c, pl, parts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs[0][0] != 1 {
		t.Fatalf("long interval seeded with processor %d, want fast processor 1", m.Procs[0][0])
	}
	if m.Procs[1][0] != 0 {
		t.Fatalf("short interval got processor %d, want 0", m.Procs[1][0])
	}
}

func TestGreedyHetHonorsPeriodBound(t *testing.T) {
	// Slow processor cannot serve the long interval within the bound.
	c := chain.Chain{{Work: 100, Out: 1}, {Work: 10, Out: 0}}
	pl := platform.Platform{
		Procs: []platform.Processor{
			{Speed: 1, FailRate: 1e-6},  // 100/1 = 100 > 50 for interval 0
			{Speed: 10, FailRate: 1e-6}, // 100/10 = 10 <= 50
		},
		Bandwidth: 1, LinkFailRate: 1e-6, MaxReplicas: 3,
	}
	parts := interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}}
	m, _, err := GreedyHet(c, pl, parts, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if ev.WorstPeriod > 50 {
		t.Fatalf("WorstPeriod = %v exceeds the bound 50", ev.WorstPeriod)
	}
}

func TestGreedyHetInfeasiblePeriod(t *testing.T) {
	c := chain.Chain{{Work: 100, Out: 0}}
	pl := platform.Homogeneous(2, 1, 1e-6, 1, 1e-6, 2)
	_, _, err := GreedyHet(c, pl, interval.Single(1), 10, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyHetConstraints(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 1}, {Work: 10, Out: 0}}
	pl := homPl(4)
	parts := interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}}
	// Processors 0 and 2 are dead.
	alive := []bool{false, true, false, true}
	m, _, err := GreedyHet(c, pl, parts, 0, alive)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for j, ps := range m.Procs {
		for _, u := range ps {
			if !alive[u] {
				t.Fatalf("interval %d uses dead processor %d", j, u)
			}
			used++
		}
	}
	if used != 2 {
		t.Fatalf("procs = %v, want both survivors used", m.Procs)
	}
}

func TestGreedyHetConstraintInfeasible(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 0}}
	pl := homPl(2)
	_, _, err := GreedyHet(c, pl, interval.Single(1), 0, []bool{false, false})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyHetMatchesGreedyOnHomogeneous(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(5)
		c := chain.PaperRandom(r, n)
		p := n + r.IntN(4)
		pl := platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 1+r.IntN(3))
		m := 1 + r.IntN(minInt(n, p))
		var parts interval.Partition
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.5)
		})
		g, errG := exactref.Greedy(c, pl, parts)
		h, _, errH := GreedyHet(c, pl, parts, 0, nil)
		if (errG == nil) != (errH == nil) {
			return false
		}
		if errG != nil {
			return true
		}
		ge, _ := mapping.Evaluate(c, pl, g)
		he, _ := mapping.Evaluate(c, pl, h)
		// Identical reliability on homogeneous platforms (processor
		// identities may differ).
		return math.Abs(ge.LogRel-he.LogRel) <= 1e-12*(1+math.Abs(ge.LogRel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyHetProducesValidMappings(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(8)
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHeterogeneous(r, n+r.IntN(5))
		m := 1 + r.IntN(minInt(n, pl.P()))
		var parts interval.Partition
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.7)
		})
		mp, _, err := GreedyHet(c, pl, parts, 0, nil)
		if err != nil {
			return true
		}
		return mp.Validate(c, pl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
