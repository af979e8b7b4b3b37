package heur

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func TestHeuristicsFindUnconstrainedSolutions(t *testing.T) {
	r := rng.New(1)
	c := chain.PaperRandom(r, 15)
	pl := homPl(10)
	for name, fn := range map[string]func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){
		"HeurP": HeurP, "HeurL": HeurL, "Best": Best,
	} {
		res, ok, err := fn(c, pl, Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s found no unconstrained solution", name)
		}
		if err := res.M.Validate(c, pl); err != nil {
			t.Fatalf("%s produced invalid mapping: %v", name, err)
		}
	}
}

func TestSolutionsRespectBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 8)
		het := r.Bernoulli(0.5)
		var pl platform.Platform
		if het {
			pl = platform.PaperHeterogeneous(r, 8)
		} else {
			pl = homPl(8)
		}
		opts := Options{Period: r.Uniform(30, 300), Latency: r.Uniform(100, 900)}
		for _, fn := range []func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){HeurP, HeurL} {
			res, ok, err := fn(c, pl, opts, nil)
			if err != nil {
				return false
			}
			if !ok {
				continue
			}
			if res.Ev.WorstPeriod > opts.Period+1e-9 || res.Ev.WorstLatency > opts.Latency+1e-9 {
				return false
			}
			if res.M.Validate(c, pl) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicsNeverBeatExactOnHomogeneous(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(8)
		c := chain.PaperRandom(r, n)
		pl := homPl(2 + r.IntN(7))
		opts := Options{Period: r.Uniform(30, 400), Latency: r.Uniform(100, 1200)}
		_, evOpt, errOpt := exact.OptimalPar(context.Background(), c, pl, opts.Period, opts.Latency, 1)
		for _, fn := range []func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){HeurP, HeurL} {
			res, ok, err := fn(c, pl, opts, nil)
			if err != nil {
				return false
			}
			if !ok {
				continue
			}
			if errOpt != nil {
				// The heuristic found a solution the "exact" solver
				// missed: impossible.
				return false
			}
			if res.Ev.LogRel > evOpt.LogRel+1e-9*(1+math.Abs(evOpt.LogRel)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBestIsAtLeastEachHeuristic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 8)
		pl := platform.PaperHeterogeneous(r, 8)
		opts := Options{Period: r.Uniform(5, 100), Latency: r.Uniform(20, 400)}
		rb, okB, err := Best(c, pl, opts, nil)
		if err != nil {
			return false
		}
		rp, okP, _ := HeurP(c, pl, opts, nil)
		rl, okL, _ := HeurL(c, pl, opts, nil)
		if okB != (okP || okL) {
			return false
		}
		if okP && rb.Ev.LogRel < rp.Ev.LogRel-1e-12 {
			return false
		}
		if okL && rb.Ev.LogRel < rl.Ev.LogRel-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeurPPrefersBalancedUnderTightPeriod(t *testing.T) {
	// A chain whose balanced 2-split meets P but whose 1-interval
	// mapping does not: Heur-P must find the split.
	c := chain.Chain{{Work: 50, Out: 1}, {Work: 50, Out: 0}}
	pl := homPl(4)
	res, ok, err := HeurP(c, pl, Options{Period: 60}, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(res.M.Parts) != 2 {
		t.Fatalf("intervals = %d, want 2", len(res.M.Parts))
	}
	if res.Ev.WorstPeriod > 60 {
		t.Fatalf("WP = %v > 60", res.Ev.WorstPeriod)
	}
}

func TestHeurLMinimizesCommUnderLooseBounds(t *testing.T) {
	// Tight latency bound forces Heur-L to pick cuts at cheap comms.
	c := chain.Chain{
		{Work: 10, Out: 100}, {Work: 10, Out: 1}, {Work: 10, Out: 0},
	}
	pl := homPl(6)
	// Latency 32 admits only partitions whose total comm <= 2
	// (30 compute + comm): the cut after task 1 (o=1) or no cut.
	res, ok, err := HeurL(c, pl, Options{Latency: 32}, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if res.Ev.WorstLatency > 32 {
		t.Fatalf("WL = %v > 32", res.Ev.WorstLatency)
	}
	for j := range res.M.Parts {
		if res.M.Parts.Out(c, j) == 100 {
			t.Fatal("Heur-L cut at the expensive communication")
		}
	}
}

func TestInfeasibleBounds(t *testing.T) {
	c := chain.Chain{{Work: 100, Out: 0}}
	pl := homPl(3)
	for name, fn := range map[string]func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){
		"HeurP": HeurP, "HeurL": HeurL, "Best": Best,
	} {
		_, ok, err := fn(c, pl, Options{Period: 1}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok {
			t.Fatalf("%s claims a solution under an impossible period bound", name)
		}
	}
}

func TestInvalidInputsReturnError(t *testing.T) {
	bad := chain.Chain{}
	if _, _, err := HeurP(bad, homPl(2), Options{}, nil); err == nil {
		t.Fatal("HeurP accepted empty chain")
	}
	pl := homPl(2)
	pl.Bandwidth = 0
	if _, _, err := HeurL(chain.Chain{{Work: 1, Out: 0}}, pl, Options{}, nil); err == nil {
		t.Fatal("HeurL accepted invalid platform")
	}
}

func TestHeterogeneousOutperformsSlowHomogeneous(t *testing.T) {
	// The paper's §8.2 observation: with speeds up to 100 versus a fixed
	// speed of 5, het platforms solve more tight-period instances.
	r := rng.New(42)
	solvedHet, solvedHom := 0, 0
	for i := 0; i < 30; i++ {
		c := chain.PaperRandom(r.Split(), 15)
		het := platform.PaperHeterogeneous(r.Split(), 10)
		hom := platform.PaperHomogeneousComparison(10)
		opts := Options{Period: 40, Latency: 150}
		if _, ok, _ := Best(c, het, opts, nil); ok {
			solvedHet++
		}
		if _, ok, _ := Best(c, hom, opts, nil); ok {
			solvedHom++
		}
	}
	if solvedHet <= solvedHom {
		t.Fatalf("het solved %d <= hom solved %d; expected het advantage", solvedHet, solvedHom)
	}
}
