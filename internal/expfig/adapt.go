package expfig

import (
	"context"
	"fmt"
	"math"

	"relpipe/internal/adapt"
	"relpipe/internal/chain"
	"relpipe/internal/heur"
	"relpipe/internal/par"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// AdaptPolicySweep quantifies the online-adaptation trade-off as a
// figure (figB1, beyond the paper): mean mission reliability versus
// mission length for each repair policy of internal/adapt, on random
// heterogeneous instances whose crash rates are scaled so that long
// missions see many permanent failures. The curves separate exactly
// where the policies differ: none decays first (any emptied interval
// kills the mission), greedy and a finite spare pool survive longer,
// and remap holds the ceiling set by re-optimization over the
// shrinking platform.
//
// Instances build and sweep in parallel (cfg.Parallelism); per-instance
// generators are split off the master sequentially first and the mean
// reduces in instance order, so the figure is bit-identical for any
// degree.
func AdaptPolicySweep(cfg Config) Figure {
	cfg = cfg.withDefaults()
	// Mission lengths: the paper platform's λ = 1e-8 scaled by 1e5
	// gives a per-processor crash rate of 1e-3 per time unit, so the
	// sweep spans ~2.5 (short mission, few crashes) to ~20 expected
	// crashes across 10 processors.
	const lifeScale = 1e5
	var horizons []float64
	for h := 250.0; h <= 2000+1e-9; h += 250 * float64(cfg.Step) {
		horizons = append(horizons, h)
	}
	const reps = 4

	master := rng.New(cfg.Seed)
	type instSpec struct {
		c  chain.Chain
		pl platform.Platform
	}
	specs := make([]instSpec, cfg.Instances)
	for i := range specs {
		specs[i].c = chain.PaperRandom(master.Split(), cfg.Tasks)
		specs[i].pl = platform.RandomHeterogeneous(master.Split(), cfg.Procs,
			1, cfg.HetSpeedMax, 1e-8, 1e-8, 1, 1e-5, 3)
	}

	policies := adapt.Policies()
	// rels[i][s][xi]: per-instance curves, reduced in instance order.
	rels, err := par.Map(context.Background(), cfg.Parallelism, cfg.Instances, func(i int) ([][]float64, error) {
		res, ok, err := heur.Best(specs[i].c, specs[i].pl, heur.Options{}, nil)
		if err != nil || !ok {
			panic(fmt.Sprintf("expfig: unconstrained heuristic failed on instance %d (ok=%v err=%v)", i, ok, err))
		}
		out := make([][]float64, len(policies))
		for s, policy := range policies {
			out[s] = make([]float64, len(horizons))
			for xi, h := range horizons {
				b, err := adapt.RunBatch(context.Background(), specs[i].c, specs[i].pl, res.M, adapt.Options{
					Policy:    policy,
					Horizon:   h,
					LifeScale: lifeScale,
					Spares:    2,
					Seed:      uint64(i + 1),
					Restarts:  1,
					Budget:    200,
				}, reps, 1, nil)
				if err != nil {
					panic(fmt.Sprintf("expfig: adapt instance %d: %v", i, err))
				}
				out[s][xi] = b.Summarize().MissionReliability
			}
		}
		return out, nil
	})
	if err != nil {
		panic(fmt.Sprintf("expfig: %v", err)) // unreachable: the sweep never errors
	}

	f := Figure{
		ID:     "figB1",
		Title:  "Mission reliability vs mission length by repair policy",
		XLabel: "mission length",
		YLabel: "mean mission reliability",
	}
	for s, policy := range policies {
		ys := make([]float64, len(horizons))
		for xi := range horizons {
			sum, n := 0.0, 0
			for i := range rels {
				v := rels[i][s][xi]
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			if n > 0 {
				ys[xi] = sum / float64(n)
			} else {
				ys[xi] = math.NaN()
			}
		}
		f.Series = append(f.Series, Series{Label: policy.String(), X: horizons, Y: ys})
	}
	return f
}
