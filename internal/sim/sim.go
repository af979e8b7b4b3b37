package sim

import (
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// RoutingMode selects how boundary communications are charged.
type RoutingMode int

const (
	// OneHop charges one o/b hop per boundary with one link-failure
	// sample (sender side), matching Eqs. (5)–(8).
	OneHop RoutingMode = iota
	// TwoHop charges replica→router and router→replica hops with
	// independent failure samples, matching Eq. (9).
	TwoHop
)

// Config describes one simulation run.
type Config struct {
	Chain    chain.Chain
	Platform platform.Platform
	Mapping  mapping.Mapping
	// Period is the data-set injection period. It must be positive;
	// sustained operation requires Period ≥ the mapping's worst-case
	// period, but the simulator happily shows the queue growth if not.
	Period float64
	// DataSets is the number of data sets to push through.
	DataSets int
	// Seed drives all failure sampling; equal seeds give identical runs.
	// 0 aliases the default seed 1, the repo-wide convention.
	Seed uint64
	// InjectFailures enables transient-failure sampling. When false the
	// run is deterministic and every data set succeeds.
	InjectFailures bool
	// Routing selects the boundary accounting (default OneHop).
	Routing RoutingMode
	// WarmUp data sets are excluded from the steady-state period
	// estimate (but still counted for success/latency).
	WarmUp int
	// Trace, when non-nil, records every compute/send/forward operation
	// of a single Run, in event order, for Gantt rendering and
	// utilization analysis; it never changes the Result.
	Trace *Trace
}

// Result aggregates a run.
type Result struct {
	DataSets    int
	Successes   int
	Latencies   []float64 // per successful data set, in injection order
	Completions []float64 // completion times of successful data sets
	// SteadyPeriod is the mean inter-completion time after warm-up
	// (NaN with fewer than two post-warm-up completions).
	SteadyPeriod float64
}

// SuccessRate returns the fraction of data sets fully processed.
func (r Result) SuccessRate() float64 {
	if r.DataSets == 0 {
		return math.NaN()
	}
	return float64(r.Successes) / float64(r.DataSets)
}

// FailureRate returns 1 - SuccessRate.
func (r Result) FailureRate() float64 { return 1 - r.SuccessRate() }

// MeanLatency returns the mean latency of successful data sets.
func (r Result) MeanLatency() float64 {
	if len(r.Latencies) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, l := range r.Latencies {
		s += l
	}
	return s / float64(len(r.Latencies))
}

// MaxLatency returns the largest observed latency.
func (r Result) MaxLatency() float64 {
	m := math.NaN()
	for i, l := range r.Latencies {
		if i == 0 || l > m {
			m = l
		}
	}
	return m
}

// Run executes one replication of the simulation on the flat-array
// engine (soa.go).
func Run(cfg Config) (Result, error) {
	t, err := newSoaTables(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return newSoaEngine(t, nil, cfg.Trace).run(cfg.Seed)
}
