package sim

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"relpipe/internal/obs"
	"relpipe/internal/par"
	"relpipe/internal/progress"
	"relpipe/internal/rng"
)

// BatchResult aggregates the independent replications of one RunBatch
// call. Runs and Seeds are in replication order; replication r ran with
// Seeds[r], so any replication can be reproduced standalone.
type BatchResult struct {
	Runs  []Result
	Seeds []uint64
}

// RunBatch executes replications independent copies of the simulation
// on up to par.Degree(parallelism) goroutines (see internal/par; 1 =
// sequential, 0 = GOMAXPROCS). Replication r runs on the engine Run
// uses with Seeds[r], the r-th draw of a master generator seeded with
// cfg.Seed (0 aliases the default seed 1, the repo-wide convention), so
// the batch is bit-identical for every degree and any replication can
// be reproduced standalone. cfg.Trace must be nil: a shared trace would
// interleave operations across replications; trace single runs. report,
// when non-nil, receives (replicationsDone, replications) as
// replications complete (see internal/progress); it never influences
// the result.
func RunBatch(ctx context.Context, cfg Config, replications, parallelism int, report progress.Func) (BatchResult, error) {
	if replications <= 0 {
		return BatchResult{}, errors.New("sim: replications must be positive")
	}
	if cfg.Trace != nil {
		return BatchResult{}, errors.New("sim: Trace is not supported by RunBatch; trace a single Run instead")
	}
	batchStart := time.Now()
	t, err := newSoaTables(cfg)
	if err != nil {
		return BatchResult{}, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	master := rng.New(cfg.Seed)
	b := BatchResult{Runs: make([]Result, replications), Seeds: make([]uint64, replications)}
	for r := range b.Seeds {
		b.Seeds[r] = master.Uint64()
	}
	reps := progress.NewCounter(int64(replications), report)
	if !cfg.InjectFailures {
		// No failure sampling, no RNG draws: every replication is the
		// same run, so simulate once and hand out independent copies.
		res, err := newSoaEngine(t, ctx, nil).run(b.Seeds[0])
		if err != nil {
			return BatchResult{}, err
		}
		for r := range b.Runs {
			b.Runs[r] = res
			b.Runs[r].Latencies = slices.Clone(res.Latencies)
			b.Runs[r].Completions = slices.Clone(res.Completions)
			reps.Add(1)
		}
	} else {
		// Workers share the tables read-only and each drives its shard
		// through one reused engine, allocation-free after a first run.
		err = par.Run(ctx, parallelism, replications, func(ctx context.Context, s par.Shard) error {
			eng := newSoaEngine(t, ctx, nil)
			for r := s.Lo; r < s.Hi; r++ {
				res, err := eng.run(b.Seeds[r])
				if err != nil {
					return err
				}
				b.Runs[r] = res
				reps.Add(1)
			}
			return nil
		})
		if err != nil {
			return BatchResult{}, err
		}
	}
	obs.Stage(ctx, "sim.batch", batchStart, int64(replications), nil)
	return b, nil
}

// DataSets returns the total data sets injected across replications.
func (b BatchResult) DataSets() int {
	t := 0
	for _, r := range b.Runs {
		t += r.DataSets
	}
	return t
}

// Successes returns the total fully processed data sets.
func (b BatchResult) Successes() int {
	t := 0
	for _, r := range b.Runs {
		t += r.Successes
	}
	return t
}

// SuccessRate returns the pooled success fraction (NaN for an empty
// batch).
func (b BatchResult) SuccessRate() float64 {
	n := b.DataSets()
	if n == 0 {
		return math.NaN()
	}
	return float64(b.Successes()) / float64(n)
}

// FailureRate returns 1 - SuccessRate.
func (b BatchResult) FailureRate() float64 { return 1 - b.SuccessRate() }

// MeanLatency returns the mean latency over every successful data set of
// every replication (NaN when none succeeded).
func (b BatchResult) MeanLatency() float64 {
	s, n := 0.0, 0
	for _, r := range b.Runs {
		for _, l := range r.Latencies {
			s += l
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// MaxLatency returns the largest latency observed in any replication
// (NaN when none succeeded).
func (b BatchResult) MaxLatency() float64 {
	m, seen := 0.0, false
	for _, r := range b.Runs {
		for _, l := range r.Latencies {
			if !seen || l > m {
				m, seen = l, true
			}
		}
	}
	if !seen {
		return math.NaN()
	}
	return m
}

// MeanSteadyPeriod returns the mean steady-state period over the
// replications that could estimate one (NaN when none could).
func (b BatchResult) MeanSteadyPeriod() float64 {
	s, n := 0.0, 0
	for _, r := range b.Runs {
		if !math.IsNaN(r.SteadyPeriod) {
			s += r.SteadyPeriod
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}
