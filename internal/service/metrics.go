package service

import (
	"strconv"

	"relpipe/internal/fleet"
	"relpipe/internal/jobs"
	"relpipe/internal/obs"
)

// fleetDriftBuckets span the reliability-gap scale: near-1
// reliabilities make drifts tiny, so the buckets are log-spaced from
// 1e-12 to 1 (an implicit +Inf bucket catches a full outage's gap).
var fleetDriftBuckets = []float64{
	1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1,
}

// Metrics aggregates the service counters. It is a thin facade over an
// obs.Registry: the named methods the server and pool call (Request,
// CacheHit, ObserveSolve, ...) update registry instruments, and the
// registry renders the Prometheus exposition at /metrics, the one read
// path for every counter. Latency histograms use obs.DefBuckets. All
// methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	requests     *obs.CounterVec   // relpipe_requests_total{endpoint}
	httpRequests *obs.CounterVec   // relpipe_http_requests_total{endpoint,code}
	httpLatency  *obs.HistogramVec // relpipe_http_request_duration_seconds{endpoint}
	cacheHits    obs.Counter
	cacheMisses  obs.Counter
	dedupJoins   obs.Counter
	solves       obs.Counter
	rejected     obs.Counter
	queueDepth   obs.Gauge
	solveLatency obs.Histogram     // relpipe_solve_duration_seconds
	stageLatency *obs.HistogramVec // relpipe_solver_stage_duration_seconds{stage}
	stageUnits   *obs.CounterVec   // relpipe_solver_stage_units_total{stage}

	batchTablesBuilt obs.Counter // relpipe_solve_batch_tables_built_total
	batchCoalesced   obs.Counter // relpipe_solve_batch_coalesced_total

	fleetDecisions *obs.CounterVec // relpipe_fleet_decisions_total{kind}
	fleetDrift     obs.Histogram   // relpipe_fleet_drift
	fleetTick      obs.Histogram   // relpipe_fleet_tick_duration_seconds

	clusterForwards       *obs.CounterVec   // relpipe_cluster_forwards_total{peer}
	clusterForwardErrors  *obs.CounterVec   // relpipe_cluster_forward_errors_total{peer}
	clusterFallbacks      *obs.CounterVec   // relpipe_cluster_fallbacks_total{peer}
	clusterForwardLatency *obs.HistogramVec // relpipe_cluster_forward_duration_seconds{peer}
}

// NewMetrics returns a metrics registry with every service instrument
// registered.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		requests: reg.NewCounterVec("relpipe_requests_total",
			"Logical solve requests by endpoint (batch items count individually).", "endpoint"),
		httpRequests: reg.NewCounterVec("relpipe_http_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		httpLatency: reg.NewHistogramVec("relpipe_http_request_duration_seconds",
			"HTTP request latency by endpoint.", obs.DefBuckets, "endpoint"),
		cacheHits: reg.NewCounter("relpipe_cache_hits_total",
			"Result-cache hits."),
		cacheMisses: reg.NewCounter("relpipe_cache_misses_total",
			"Result-cache misses."),
		dedupJoins: reg.NewCounter("relpipe_dedup_joins_total",
			"Requests that attached to an identical in-flight solve."),
		solves: reg.NewCounter("relpipe_solves_total",
			"Underlying solver executions."),
		rejected: reg.NewCounter("relpipe_rejected_total",
			"Requests shed with 429 because the worker queue was full."),
		queueDepth: reg.NewGauge("relpipe_queue_depth",
			"Solves waiting for a worker."),
		solveLatency: reg.NewHistogram("relpipe_solve_duration_seconds",
			"Solver execution latency.", obs.DefBuckets),
		stageLatency: reg.NewHistogramVec("relpipe_solver_stage_duration_seconds",
			"Solver stage latency (dp.table, search.anneal, sim.batch, ...).", obs.DefBuckets, "stage"),
		stageUnits: reg.NewCounterVec("relpipe_solver_stage_units_total",
			"Work units completed per solver stage (restarts, replications, table cells).", "stage"),
		batchTablesBuilt: reg.NewCounter("relpipe_solve_batch_tables_built_total",
			"Heuristic partition-table builds by the per-instance table tier."),
		batchCoalesced: reg.NewCounter("relpipe_solve_batch_coalesced_total",
			"Heuristic solves that reused tables from the per-instance table tier instead of building them."),
		// The fleet decision counter is labelled by decision kind — a
		// small fixed vocabulary (internal/fleet's DecisionKind consts),
		// never request content.
		fleetDecisions: reg.NewCounterVec("relpipe_fleet_decisions_total",
			"Fleet controller decisions by kind (proc-dead, drift, remap-submitted, remap-suppressed, ...).", "kind"),
		fleetDrift: reg.NewHistogram("relpipe_fleet_drift",
			"Reliability gap (floor - reliability) observed on fleet drift/down decisions.", fleetDriftBuckets),
		fleetTick: reg.NewHistogram("relpipe_fleet_tick_duration_seconds",
			"Fleet control-loop tick latency.", obs.DefBuckets),
		// The cluster families are label-parameterized by peer base URL —
		// bounded by the static peer list, never by request content. They
		// stay empty (HELP/TYPE only) on single-node servers.
		clusterForwards: reg.NewCounterVec("relpipe_cluster_forwards_total",
			"Requests forwarded to their consistent-hash owner node.", "peer"),
		clusterForwardErrors: reg.NewCounterVec("relpipe_cluster_forward_errors_total",
			"Forward hops that found the owner unreachable (transport error or 502/503).", "peer"),
		clusterFallbacks: reg.NewCounterVec("relpipe_cluster_fallbacks_total",
			"Requests solved locally because their owner node was unreachable.", "peer"),
		clusterForwardLatency: reg.NewHistogramVec("relpipe_cluster_forward_duration_seconds",
			"Forward-hop round-trip latency by owner node.", obs.DefBuckets, "peer"),
	}
}

// Registry exposes the underlying obs registry (the /metrics handler
// and extra instrument registration).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Request counts one request against an endpoint name.
func (m *Metrics) Request(endpoint string) { m.requests.With(endpoint).Inc() }

// HTTPRequest records one finished HTTP exchange (the trace middleware
// calls it with the final status code and wall-clock latency).
func (m *Metrics) HTTPRequest(endpoint string, code int, seconds float64) {
	m.httpRequests.With(endpoint, strconv.Itoa(code)).Inc()
	m.httpLatency.With(endpoint).Observe(seconds)
}

// CacheHit / CacheMiss count result-cache lookups.
func (m *Metrics) CacheHit()  { m.cacheHits.Inc() }
func (m *Metrics) CacheMiss() { m.cacheMisses.Inc() }

// DedupJoin counts a request that attached to an identical in-flight
// solve instead of starting its own.
func (m *Metrics) DedupJoin() { m.dedupJoins.Inc() }

// Solve counts one underlying solver execution.
func (m *Metrics) Solve() { m.solves.Inc() }

// Rejected counts a request shed with 429 because the queue was full.
func (m *Metrics) Rejected() { m.rejected.Inc() }

// QueueEnter / QueueLeave maintain the queue-depth gauge.
func (m *Metrics) QueueEnter() { m.queueDepth.Inc() }
func (m *Metrics) QueueLeave() { m.queueDepth.Dec() }

// ObserveSolve records one solve latency in the histogram.
func (m *Metrics) ObserveSolve(seconds float64) { m.solveLatency.Observe(seconds) }

// StageObserver returns the hook that turns solver stage events
// (obs.Stage calls inside relpipe, search, dp, sim, adapt, par) into the
// per-stage latency histogram and unit counters.
func (m *Metrics) StageObserver() obs.StageObserver {
	return func(e obs.StageEvent) {
		m.stageLatency.With(e.Name).Observe(e.Duration.Seconds())
		if e.Units > 0 {
			m.stageUnits.With(e.Name).Add(float64(e.Units))
		}
	}
}

// TableBuilt counts one route's heur.Tables created by the table tier.
func (m *Metrics) TableBuilt() { m.batchTablesBuilt.Inc() }

// BatchCoalesce counts a heuristic solve served tables that the table
// tier holds or another solve is building.
func (m *Metrics) BatchCoalesce() { m.batchCoalesced.Inc() }

// ClusterForward records one forward hop to a peer (however it ended)
// with its round-trip latency.
func (m *Metrics) ClusterForward(peer string, seconds float64) {
	m.clusterForwards.With(peer).Inc()
	m.clusterForwardLatency.With(peer).Observe(seconds)
}

// ClusterForwardError counts a forward hop that found the peer
// unreachable.
func (m *Metrics) ClusterForwardError(peer string) { m.clusterForwardErrors.With(peer).Inc() }

// ClusterFallback counts a request solved locally because its owner was
// unreachable — the graceful-degradation counter the peer-failure tests
// and the e2e kill-one-node assertion watch.
func (m *Metrics) ClusterFallback(peer string) { m.clusterFallbacks.With(peer).Inc() }

// RegisterClusterStats exports the membership gauge once the server
// joins a cluster.
func (m *Metrics) RegisterClusterStats(c interface{ Peers() []string }) {
	m.reg.NewGaugeFunc("relpipe_cluster_peers",
		"Cluster members (self included) in the current ring.", nil, nil,
		func() float64 { return float64(len(c.Peers())) })
}

// RegisterCacheStats exports the result cache's size and evictions.
func (m *Metrics) RegisterCacheStats(c *Cache) {
	m.reg.NewGaugeFunc("relpipe_cache_entries",
		"Result-cache entries.", nil, nil, func() float64 { return float64(c.Len()) })
	m.reg.NewCounterFunc("relpipe_cache_evictions_total",
		"Result-cache LRU evictions.", nil, nil, func() float64 { return float64(c.Evictions()) })
}

// RegisterJobStats exports the async job engine's lifecycle gauges and
// counters.
func (m *Metrics) RegisterJobStats(e *jobs.Engine) {
	for _, st := range []string{"queued", "running", "terminal"} {
		m.reg.NewGaugeFunc("relpipe_jobs",
			"Stored async jobs by lifecycle state.", []string{"state"}, []string{st},
			func() float64 {
				s := e.Stats()
				switch st {
				case "queued":
					return float64(s.Queued)
				case "running":
					return float64(s.Running)
				default:
					return float64(s.Terminal)
				}
			})
	}
	m.reg.NewGaugeFunc("relpipe_job_subscribers",
		"Open SSE event-stream subscriptions.", nil, nil,
		func() float64 { return float64(e.Stats().Subscribers) })
	m.reg.NewCounterFunc("relpipe_jobs_submitted_total",
		"Async jobs admitted.", nil, nil,
		func() float64 { return float64(e.Stats().Submitted) })
	m.reg.NewCounterFunc("relpipe_jobs_evicted_total",
		"Async jobs evicted from the store (capacity or TTL).", nil, nil,
		func() float64 { return float64(e.Stats().Evicted) })
}

// FleetDecision records one fleet controller decision: the per-kind
// counter, plus the drift histogram on drift/down decisions. Called
// from the controller's OnDecision hook (its lock held — counter
// increments only).
func (m *Metrics) FleetDecision(d fleet.Decision) {
	m.fleetDecisions.With(string(d.Kind)).Inc()
	if d.Kind == fleet.DecisionDrift || d.Kind == fleet.DecisionDown {
		m.fleetDrift.Observe(d.Drift)
	}
}

// FleetTick records one control-loop tick latency.
func (m *Metrics) FleetTick(seconds float64) { m.fleetTick.Observe(seconds) }

// RegisterFleetStats exports the fleet controller's deployment gauge
// and remap lifecycle counters.
func (m *Metrics) RegisterFleetStats(c *fleet.Controller) {
	m.reg.NewGaugeFunc("relpipe_fleet_deployments",
		"Deployments registered with the fleet controller.", nil, nil,
		func() float64 { return float64(c.Stats().Deployments) })
	m.reg.NewCounterFunc("relpipe_fleet_remaps_total",
		"Autonomous remap jobs submitted by the fleet controller.", nil, nil,
		func() float64 { return float64(c.Stats().Remaps) })
	m.reg.NewCounterFunc("relpipe_fleet_remaps_adopted_total",
		"Autonomous remaps whose result was adopted.", nil, nil,
		func() float64 { return float64(c.Stats().Adopted) })
	m.reg.NewCounterFunc("relpipe_fleet_remaps_suppressed_total",
		"Remap trigger episodes suppressed by cooldown or circuit breaker.", nil, nil,
		func() float64 { return float64(c.Stats().Suppressed) })
	m.reg.NewCounterFunc("relpipe_fleet_remaps_failed_total",
		"Autonomous remaps that failed (admission, solver error or unusable result).", nil, nil,
		func() float64 { return float64(c.Stats().Failed) })
}

// RegisterTraceStats exports the trace recorder's occupancy.
func (m *Metrics) RegisterTraceStats(rec *obs.Recorder) {
	m.reg.NewGaugeFunc("relpipe_traces_stored",
		"Traces currently held by the bounded recorder.", nil, nil,
		func() float64 { stored, _ := rec.Stats(); return float64(stored) })
	m.reg.NewCounterFunc("relpipe_traces_recorded_total",
		"Traces ever recorded (recorded - stored = evicted).", nil, nil,
		func() float64 { _, recorded := rec.Stats(); return float64(recorded) })
}

// QueueDepth returns the current pending-solve gauge.
func (m *Metrics) QueueDepth() int64 { return int64(m.queueDepth.Value()) }

// MeanSolveSeconds returns the mean observed solve latency (0 before
// any solve completed). The backpressure Retry-After estimate uses it.
func (m *Metrics) MeanSolveSeconds() float64 {
	s := m.solveLatency.Snapshot()
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
