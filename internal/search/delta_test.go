package search

// The delta-evaluation metamorphic suite: the engine run on its
// incremental evaluator must be indistinguishable — bit for bit — from
// the same run on the full-evaluation reference oracle
// (Options.referenceEval). Identical best mapping, identical Eval bit
// patterns, identical Stats (iterations, acceptances, scores), at any
// parallelism, across homogeneous and heterogeneous instances from
// small to paper-scale chains and for every objective. Together with
// FuzzEvalDelta (per-move bit-identity in internal/mapping) this pins
// the whole determinism contract of the incremental path.

import (
	"fmt"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// deltaEvalBits collapses an Eval's aggregate scalars to exact bit
// patterns for the bit-identity comparison.
func deltaEvalBits(ev mapping.Eval) [6]uint64 {
	return [6]uint64{
		math.Float64bits(ev.LogRel),
		math.Float64bits(ev.FailProb),
		math.Float64bits(ev.ExpPeriod),
		math.Float64bits(ev.ExpLatency),
		math.Float64bits(ev.WorstPeriod),
		math.Float64bits(ev.WorstLatency),
	}
}

type deltaInstance struct {
	name string
	c    chain.Chain
	pl   platform.Platform
	opts Options
}

// deltaInstances pins one homogeneous and two heterogeneous instances
// spanning n=12 to n=500. Budgets are trimmed so the large chain stays
// test-sized; the trajectories still exercise every neighborhood many
// times over.
func deltaInstances() []deltaInstance {
	rSmall := rng.New(3)
	rMid := rng.New(42)
	rBig := rng.New(8)
	return []deltaInstance{
		{
			name: "hom-n12",
			c:    chain.PaperRandom(rSmall, 12),
			pl:   platform.PaperHomogeneous(8),
			opts: Options{Seed: 1, Restarts: 3, Budget: 1500},
		},
		{
			name: "het-n100",
			c:    chain.PaperRandom(rMid, 100),
			pl:   platform.PaperHeterogeneous(rMid, 30),
			opts: Options{Period: 25, Latency: 600, Seed: 1, Restarts: 2, Budget: 1200},
		},
		{
			name: "het-n500",
			c:    chain.PaperRandom(rBig, 500),
			pl:   platform.PaperHeterogeneous(rBig, 60),
			opts: Options{Period: 60, Latency: 4200, Seed: 1, Restarts: 2, Budget: 600},
		},
	}
}

// runBoth runs one engine entry point in both scoring modes and fails
// the test unless the outcomes match bit-for-bit, Stats included.
func runBoth(t *testing.T, name string, c chain.Chain, pl platform.Platform, opts Options,
	f func(chain.Chain, platform.Platform, Options) (Result, bool, error)) {
	t.Helper()
	delta := opts
	delta.referenceEval = false
	full := opts
	full.referenceEval = true
	resD, okD, errD := f(c, pl, delta)
	resF, okF, errF := f(c, pl, full)
	if (errD == nil) != (errF == nil) || okD != okF {
		t.Fatalf("%s: modes disagree on outcome: delta ok=%v err=%v, full ok=%v err=%v",
			name, okD, errD, okF, errF)
	}
	if errD != nil || !okD {
		return
	}
	if got, want := resD.M.String(), resF.M.String(); got != want {
		t.Errorf("%s: best mappings differ:\ndelta %s\nfull  %s", name, got, want)
	}
	if got, want := deltaEvalBits(resD.Ev), deltaEvalBits(resF.Ev); got != want {
		t.Errorf("%s: evaluations differ:\ndelta %+v\nfull  %+v", name, resD.Ev, resF.Ev)
	}
	if math.Float64bits(resD.TotalCost) != math.Float64bits(resF.TotalCost) {
		t.Errorf("%s: total costs differ: delta %v, full %v", name, resD.TotalCost, resF.TotalCost)
	}
	if resD.Stats != resF.Stats {
		t.Errorf("%s: stats differ:\ndelta %+v\nfull  %+v", name, resD.Stats, resF.Stats)
	}
}

func TestDeltaEvalBitIdenticalToReference(t *testing.T) {
	for _, inst := range deltaInstances() {
		for _, par := range []int{1, 8} {
			opts := inst.opts
			opts.Parallelism = par
			t.Run(fmt.Sprintf("%s/P=%d", inst.name, par), func(t *testing.T) {
				runBoth(t, "Optimize", inst.c, inst.pl, opts, Optimize)
			})
		}
	}
}

func TestDeltaEvalBitIdenticalOtherObjectives(t *testing.T) {
	// MinimizePeriod and MinimizeCost drive the same anneal loop with
	// different scoring and move weights, so their trajectories visit
	// the neighborhoods in different mixes; the contract must hold
	// there too. One mid-size heterogeneous instance keeps this quick.
	r := rng.New(42)
	c := chain.PaperRandom(r, 100)
	pl := platform.PaperHeterogeneous(r, 30)
	opts := Options{Latency: 600, MinLogRel: -0.01, Seed: 1, Restarts: 2, Budget: 1200}
	for _, par := range []int{1, 8} {
		o := opts
		o.Parallelism = par
		t.Run(fmt.Sprintf("MinimizePeriod/P=%d", par), func(t *testing.T) {
			runBoth(t, "MinimizePeriod", c, pl, o, MinimizePeriod)
		})
		t.Run(fmt.Sprintf("MinimizeCost/P=%d", par), func(t *testing.T) {
			oc := o
			oc.Period = 25
			oc.Costs = make([]float64, pl.P())
			for u := range oc.Costs {
				oc.Costs[u] = 1 + pl.Procs[u].Speed
			}
			runBoth(t, "MinimizeCost", c, pl, oc, MinimizeCost)
		})
	}
}
