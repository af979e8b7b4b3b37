package exact

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

// TestBelowCountsCutMasks checks the closed-form partition count that
// places each ProfilesPar shard against a popcount over every index.
func TestBelowCountsCutMasks(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5, 13} {
		tb := &table{procs: procs}
		count, intervals := 0, 0
		for x := 0; x <= 1<<12; x++ {
			if gc, gi := tb.below(x); gc != count || gi != intervals {
				t.Fatalf("procs=%d below(%d) = (%d, %d), want (%d, %d)", procs, x, gc, gi, count, intervals)
			}
			if m := bits.OnesCount(uint(x)) + 1; m <= procs {
				count++
				intervals += m
			}
		}
	}
}

func TestProfilesCount(t *testing.T) {
	r := rng.New(1)
	c := chain.PaperRandom(r, 6)
	ps, err := Profiles(c, homPl(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 32 { // 2^(6-1), p >= n so none dropped
		t.Fatalf("profiles = %d, want 32", len(ps))
	}
}

func TestProfilesDropTooManyIntervals(t *testing.T) {
	r := rng.New(2)
	c := chain.PaperRandom(r, 5)
	ps, err := Profiles(c, homPl(2)) // at most 2 intervals fit
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if len(p.Ends) > 2 {
			t.Fatalf("profile with %d intervals on a 2-processor platform", len(p.Ends))
		}
	}
	// 1-interval (1) + 2-interval (4) partitions.
	if len(ps) != 5 {
		t.Fatalf("profiles = %d, want 5", len(ps))
	}
}

func TestProfilesRejectHeterogeneous(t *testing.T) {
	pl := homPl(3)
	pl.Procs[1].Speed = 2
	if _, err := Profiles(chain.Chain{{Work: 1, Out: 0}}, pl); err == nil {
		t.Fatal("Profiles accepted heterogeneous platform")
	}
}

func TestOptimalUnconstrainedMatchesAlgorithm1(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(7)
		c := chain.PaperRandom(r, n)
		pl := platform.Homogeneous(1+r.IntN(7), 1, 1e-2, 1, 1e-3, 1+r.IntN(3))
		_, evE, errE := OptimalPar(context.Background(), c, pl, 0, 0, 1)
		_, evD, errD := dp.OptimizeReliability(c, pl)
		if (errE == nil) != (errD == nil) {
			return false
		}
		if errE != nil {
			return true
		}
		return math.Abs(evE.LogRel-evD.LogRel) <= 1e-9*(1+math.Abs(evD.LogRel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalPeriodMatchesAlgorithm2(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(7)
		c := chain.PaperRandom(r, n)
		pl := platform.Homogeneous(1+r.IntN(7), 1, 1e-2, 1, 1e-3, 1+r.IntN(3))
		period := r.Uniform(30, 400)
		_, evE, errE := OptimalPar(context.Background(), c, pl, period, 0, 1)
		_, evD, errD := dp.OptimizeReliabilityPeriodPar(context.Background(), c, pl, period, 1)
		if (errE == nil) != (errD == nil) {
			return false
		}
		if errE != nil {
			return true
		}
		return math.Abs(evE.LogRel-evD.LogRel) <= 1e-9*(1+math.Abs(evD.LogRel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalRespectsBothBounds(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 8)
	pl := homPl(6)
	m, ev, err := OptimalPar(context.Background(), c, pl, 150, 700, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c, pl); err != nil {
		t.Fatal(err)
	}
	if ev.WorstPeriod > 150 || ev.WorstLatency > 700 {
		t.Fatalf("bounds violated: WP=%v WL=%v", ev.WorstPeriod, ev.WorstLatency)
	}
}

func TestOptimalInfeasible(t *testing.T) {
	c := chain.Chain{{Work: 100, Out: 0}}
	_, _, err := OptimalPar(context.Background(), c, homPl(3), 1, 0, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestLatencyBoundForcesFewerIntervals(t *testing.T) {
	// Expensive communications: a tight latency bound forbids cutting.
	c := chain.Chain{{Work: 10, Out: 40}, {Work: 10, Out: 40}, {Work: 10, Out: 0}}
	pl := homPl(9)
	// Unconstrained: the optimum splits (reliability prefers short
	// intervals when comm reliability is cheap relative to compute).
	mLoose, _, err := OptimalPar(context.Background(), c, pl, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Tight latency: only the single interval fits (30 vs 30+40+...).
	mTight, evTight, err := OptimalPar(context.Background(), c, pl, 0, 35, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mTight.Parts) != 1 {
		t.Fatalf("tight latency mapping has %d intervals, want 1", len(mTight.Parts))
	}
	if evTight.WorstLatency > 35 {
		t.Fatalf("WL = %v > 35", evTight.WorstLatency)
	}
	_ = mLoose
}

func TestMaterializeRoundTrip(t *testing.T) {
	r := rng.New(9)
	c := chain.PaperRandom(r, 6)
	pl := homPl(5)
	ps, err := Profiles(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		m := Materialize(p)
		ev, err := mapping.Evaluate(c, pl, m)
		if err != nil {
			t.Fatalf("materialized mapping invalid: %v", err)
		}
		if math.Abs(ev.LogRel-p.LogRel) > 1e-12*(1+math.Abs(p.LogRel)) {
			t.Fatalf("materialized LogRel %v != profile %v", ev.LogRel, p.LogRel)
		}
		if math.Abs(ev.WorstPeriod-p.Period) > 1e-9 || math.Abs(ev.WorstLatency-p.Latency) > 1e-9 {
			t.Fatal("materialized period/latency do not match profile")
		}
	}
}

func TestBestUnderUnconstrained(t *testing.T) {
	ps := []Profile{
		{LogRel: -3, Period: 10, Latency: 10},
		{LogRel: -1, Period: 99, Latency: 99},
	}
	if i := BestUnder(ps, 0, 0); i != 1 {
		t.Fatalf("BestUnder unconstrained = %d, want 1 (most reliable)", i)
	}
	if i := BestUnder(ps, 50, 0); i != 0 {
		t.Fatalf("BestUnder P=50 = %d, want 0", i)
	}
	if i := BestUnder(ps, 5, 0); i != -1 {
		t.Fatalf("BestUnder P=5 = %d, want -1", i)
	}
}
