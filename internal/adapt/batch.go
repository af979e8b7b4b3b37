package adapt

import (
	"context"
	"errors"
	"math"

	"time"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/par"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
	"relpipe/internal/rng"
)

// BatchResult aggregates the independent replications of one RunBatch
// call. Runs and Seeds are in replication order; replication r ran with
// Seeds[r], so any replication can be reproduced standalone with Run.
type BatchResult struct {
	Runs  []RunResult
	Seeds []uint64
}

// RunBatch executes replications independent lifetime simulations, each
// with its own seed derived deterministically from opts.Seed (0 aliases
// the default seed 1), on up to par.Degree(parallelism) goroutines.
// Replication seeds are drawn from the master generator before any run
// starts and each replication is a pure function of its seed, so the
// batch is bit-identical for every degree — the same contract as
// sim.RunBatch. report, when non-nil, receives (replicationsDone,
// replications) as replications complete (see internal/progress); it
// never influences the result.
func RunBatch(ctx context.Context, c chain.Chain, pl platform.Platform, m0 mapping.Mapping, opts Options, replications, parallelism int, report progress.Func) (BatchResult, error) {
	if replications <= 0 {
		return BatchResult{}, errors.New("adapt: replications must be positive")
	}
	opts = opts.defaults()
	master := rng.New(opts.Seed)
	seeds := make([]uint64, replications)
	for r := range seeds {
		seeds[r] = master.Uint64()
	}
	reps := progress.NewCounter(int64(replications), report)
	// Remap searches report their stages to ctx's observer but not to
	// its trace: one search per crash of every replication would grow
	// the trace with the request's size.
	searchCtx := obs.Untraced(ctx)
	batchStart := time.Now()
	runs, err := par.Map(ctx, parallelism, replications, func(r int) (RunResult, error) {
		o := opts
		o.Seed = seeds[r]
		res, err := run(searchCtx, c, pl, m0, o)
		if err == nil {
			reps.Add(1)
		}
		return res, err
	})
	if err != nil {
		return BatchResult{}, err
	}
	obs.Stage(ctx, "adapt.batch", batchStart, int64(replications), nil)
	return BatchResult{Runs: runs, Seeds: seeds}, nil
}

// Summary is the aggregate view of a batch: means over replications
// (rates where noted). Undefined aggregates are NaN.
type Summary struct {
	Replications int `json:"replications"`
	// MissionReliability is the mean per-run mission reliability — the
	// probability a randomly drawn mission is processed without a
	// single data-set failure.
	MissionReliability float64 `json:"missionReliability"`
	// Availability is the mean up-time fraction.
	Availability float64 `json:"availability"`
	// MeanTimeToFirstViolation averages the first violation time
	// (runs without a violation contribute the horizon).
	MeanTimeToFirstViolation float64 `json:"meanTimeToFirstViolation"`
	// ViolationRate is the fraction of runs that ever violated.
	ViolationRate float64 `json:"violationRate"`
	// MeanCrashes, MeanRepairs, MeanRepairTime, MeanSparesUsed and
	// MeanResidualCost average the per-run counters.
	MeanCrashes      float64 `json:"meanCrashes"`
	MeanRepairs      float64 `json:"meanRepairs"`
	MeanRepairTime   float64 `json:"meanRepairTime"`
	MeanSparesUsed   float64 `json:"meanSparesUsed"`
	MeanResidualCost float64 `json:"meanResidualCost"`
}

// Summarize reduces the batch to its aggregate metrics.
func (b BatchResult) Summarize() Summary {
	s := Summary{Replications: len(b.Runs)}
	if len(b.Runs) == 0 {
		s.MissionReliability = math.NaN()
		s.Availability = math.NaN()
		s.MeanTimeToFirstViolation = math.NaN()
		return s
	}
	n := float64(len(b.Runs))
	violated := 0
	for _, r := range b.Runs {
		m := r.Metrics
		s.MissionReliability += m.MissionReliability / n
		s.Availability += m.Availability / n
		s.MeanTimeToFirstViolation += m.TimeToFirstViolation / n
		s.MeanCrashes += float64(m.Crashes) / n
		s.MeanRepairs += float64(m.Repairs) / n
		s.MeanRepairTime += m.RepairTime / n
		s.MeanSparesUsed += float64(m.SparesUsed) / n
		s.MeanResidualCost += m.ResidualCost / n
		if m.Violated {
			violated++
		}
	}
	s.ViolationRate = float64(violated) / n
	return s
}
