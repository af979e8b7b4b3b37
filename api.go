package relpipe

import (
	"encoding/json"
	"time"

	"relpipe/internal/fleet"
	"relpipe/internal/jobs"
)

// This file defines the wire types of the solver service (internal/service,
// cmd/serve). They live in the root package so that Go clients of the HTTP
// API can marshal requests and unmarshal responses with the same structs
// the server uses.

// SearchParams tunes the heuristic search engine (method "heuristic",
// or the automatic fallback on instances beyond the exact ceiling).
// Zero values pick the solver defaults; the server rejects budgets
// above its configured caps (see service.Options).
type SearchParams struct {
	// Restarts is the portfolio size (0 = default 8).
	Restarts int `json:"restarts,omitempty"`
	// Budget is the per-restart iteration budget (0 = default, scaled
	// with the chain length).
	Budget int `json:"budget,omitempty"`
	// Seed drives the random choices; equal seeds give identical
	// results regardless of server parallelism.
	Seed uint64 `json:"seed,omitempty"`
}

// OptimizeRequest asks for a reliability-maximal mapping of an instance
// under real-time bounds ("POST /v1/optimize").
type OptimizeRequest struct {
	Instance Instance `json:"instance"`
	Bounds   Bounds   `json:"bounds,omitzero"`
	// Method is a CLI-style name: "auto", "dp", "exact", "ilp", "heur-p",
	// "heur-l", "best-heuristic", "heuristic". Empty means "auto".
	Method string `json:"method,omitempty"`
	// Search tunes the heuristic search engine; nil picks defaults.
	Search *SearchParams `json:"search,omitempty"`
}

// OptimizeResponse carries the solution of an optimize (or min-period)
// request.
type OptimizeResponse struct {
	Solution Solution `json:"solution"`
}

// EvaluateRequest asks for the §4 objectives of a given mapping
// ("POST /v1/evaluate").
type EvaluateRequest struct {
	Instance Instance `json:"instance"`
	Mapping  Mapping  `json:"mapping"`
}

// EvaluateResponse carries the evaluation of a mapping.
type EvaluateResponse struct {
	Eval Eval `json:"eval"`
}

// MinPeriodRequest asks for the period-minimal mapping subject to a
// reliability floor ("POST /v1/minperiod"). MinReliability is the
// required success probability per data set; 0 means unconstrained.
// Method is "auto" (default), "dp" (exact, homogeneous platforms) or
// "heuristic" (the search engine, any platform).
type MinPeriodRequest struct {
	Instance       Instance      `json:"instance"`
	MinReliability float64       `json:"minReliability,omitempty"`
	Method         string        `json:"method,omitempty"`
	Search         *SearchParams `json:"search,omitempty"`
}

// FrontierRequest asks for the full tri-criteria Pareto frontier of an
// instance ("POST /v1/frontier").
type FrontierRequest struct {
	Instance Instance `json:"instance"`
}

// FrontierResponse carries the Pareto-optimal (period, latency,
// reliability) trade-offs, sorted by period then latency.
type FrontierResponse struct {
	Points []FrontierPoint `json:"points"`
}

// MinCostRequest asks for the cheapest mapping meeting a reliability
// floor and the bounds ("POST /v1/mincost"). Costs[u] is the price of
// enrolling processor u. Method is "auto" (default), "exact" (small
// homogeneous instances) or "heuristic" (the search engine, any
// platform and size).
type MinCostRequest struct {
	Instance       Instance      `json:"instance"`
	Costs          []float64     `json:"costs"`
	MinReliability float64       `json:"minReliability,omitempty"`
	Bounds         Bounds        `json:"bounds,omitzero"`
	Method         string        `json:"method,omitempty"`
	Search         *SearchParams `json:"search,omitempty"`
}

// MinCostResponse carries a cost-minimal mapping.
type MinCostResponse struct {
	Solution CostSolution `json:"solution"`
}

// SimulateRequest runs the discrete-event simulator on a mapping
// ("POST /v1/simulate"). Routing is "one-hop" (default) or "two-hop".
// Replications > 1 runs that many independent Monte-Carlo replications
// (seeded deterministically from Seed, executed across the server's
// per-request parallelism budget) and aggregates them; 0 or 1 runs one.
type SimulateRequest struct {
	Instance       Instance `json:"instance"`
	Mapping        Mapping  `json:"mapping"`
	Period         float64  `json:"period"`
	DataSets       int      `json:"dataSets"`
	Seed           uint64   `json:"seed,omitempty"`
	InjectFailures bool     `json:"injectFailures,omitempty"`
	Routing        string   `json:"routing,omitempty"`
	WarmUp         int      `json:"warmUp,omitempty"`
	Replications   int      `json:"replications,omitempty"`
}

// SimulateResponse summarizes a simulation run. Per-data-set series are
// reduced to aggregates so responses stay small at service scale.
// Aggregates the simulator cannot define — the latency fields when no
// data set succeeded, SteadyPeriod with fewer than two post-warm-up
// completions — are reported as 0; Successes and DataSets disambiguate.
type SimulateResponse struct {
	DataSets     int     `json:"dataSets"`
	Successes    int     `json:"successes"`
	SuccessRate  float64 `json:"successRate"`
	MeanLatency  float64 `json:"meanLatency"`
	MaxLatency   float64 `json:"maxLatency"`
	SteadyPeriod float64 `json:"steadyPeriod"`
}

// AdaptRequest runs the online-adaptation lifetime engine on a mapping
// ("POST /v1/adapt"): processors crash at exponentially distributed
// times over the mission and the policy repairs the mapping online.
// Mapping may be omitted, in which case the server first optimizes the
// instance under the bounds (method auto). Policy is "remap" (default),
// "spares", "greedy" or "none". Replications > 1 averages that many
// independent missions (seeded deterministically from Seed, 0 = 1
// mission); Search tunes the remap policy's re-optimization.
type AdaptRequest struct {
	Instance      Instance      `json:"instance"`
	Mapping       *Mapping      `json:"mapping,omitempty"`
	Policy        string        `json:"policy,omitempty"`
	Horizon       float64       `json:"horizon"`
	Bounds        Bounds        `json:"bounds,omitzero"`
	LifeScale     float64       `json:"lifeScale,omitempty"`
	Spares        int           `json:"spares,omitempty"`
	SpareCost     float64       `json:"spareCost,omitempty"`
	Costs         []float64     `json:"costs,omitempty"`
	RepairLatency float64       `json:"repairLatency,omitempty"`
	Seed          uint64        `json:"seed,omitempty"`
	Replications  int           `json:"replications,omitempty"`
	Search        *SearchParams `json:"search,omitempty"`
}

// AdaptResponse summarizes the mission replications: means over
// replications of mission reliability, availability, time to first
// violation, repair counters and residual cost.
type AdaptResponse struct {
	Policy  string       `json:"policy"`
	Summary AdaptSummary `json:"summary"`
}

// BatchJob is one job of a batch request: Kind names the endpoint
// ("optimize", "evaluate", "minperiod", "frontier", "mincost",
// "simulate", "adapt") and Request holds that endpoint's request
// document.
type BatchJob struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request"`
}

// BatchRequest fans a list of independent jobs across the service's
// worker pool ("POST /v1/batch").
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
}

// BatchJobResult is the outcome of one batch job: Status is the HTTP
// status the job would have received standalone; Body is its response
// document (or an error document when Status is not 200).
type BatchJobResult struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse carries one result per job, in request order.
type BatchResponse struct {
	Results []BatchJobResult `json:"results"`
}

// ErrorResponse is the error document of the service: a human-readable
// message mirroring the HTTP status.
type ErrorResponse struct {
	Error string `json:"error"`
}

// TraceHeader is the response header carrying the request's trace ID on
// every /v1 endpoint. The same ID appears in an async job's JobStatus
// (traceId) and keys the recorded trace at "GET /debug/traces?id=".
const TraceHeader = "X-Trace-Id"

// ForwardedHeader marks an intra-cluster hop: a node forwarding a
// request to the instance's owner sets it to its own base URL, and a
// node receiving it always executes locally — one hop, never a routing
// loop. Clients never set it. See DESIGN.md "Cluster mode".
const ForwardedHeader = "X-Relpipe-Forwarded"

// AsyncHeader rides on forwarded requests originating from an async
// job: the receiving node applies the async contract to the solve
// (wait for a worker slot instead of shedding 429, no request timeout,
// the connection's lifetime is the cancellation bound). Only honoured
// together with ForwardedHeader.
const AsyncHeader = "X-Relpipe-Async"

// NodeHeader is the response header naming the cluster node (base URL)
// that produced the response body — the owner for routed requests, the
// entry node for local and fallback executions. Single-node servers
// omit it. The cluster e2e suite asserts stable ownership through it.
const NodeHeader = "X-Relpipe-Node"

// JobSubmitRequest submits a long-running solve for asynchronous
// execution ("POST /v1/jobs"): Kind names an endpoint ("optimize",
// "evaluate", "minperiod", "frontier", "mincost", "simulate", "adapt",
// "batch") and Request holds that endpoint's request document,
// validated at submit time. Client optionally names the submitter for
// per-client live-job caps and list filtering. The answer is 202 with
// the job's JobStatus; poll "GET /v1/jobs/{id}", stream
// "GET /v1/jobs/{id}/events" (SSE), cancel "DELETE /v1/jobs/{id}".
type JobSubmitRequest struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request"`
	Client  string          `json:"client,omitempty"`
}

// JobStatus is the wire snapshot of an async job: lifecycle state
// ("queued", "running", "succeeded", "failed", "cancelled"), monotone
// progress (search restarts, Monte-Carlo replications or batch items
// completed, depending on the kind), and — once terminal — the HTTP
// status and response document the synchronous endpoint would have
// answered with, bit-identical for the same request.
type JobStatus = jobs.Status

// JobState is a job's lifecycle phase (Terminal reports whether it is
// final).
type JobState = jobs.State

// Job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobSucceeded = jobs.StateSucceeded
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// JobProgress is a job's monotone completion snapshot.
type JobProgress = jobs.Progress

// JobListResponse carries every stored job, newest first
// ("GET /v1/jobs", optionally filtered by ?client=).
type JobListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// FleetPolicy is the wire form of a deployment's guard-rail policy
// ("POST /v1/fleet/deployments"), durations expressed in seconds. Zero
// or omitted fields take the server's -fleet* defaults, then the
// built-in ones (see internal/fleet.Policy).
type FleetPolicy struct {
	// HeartbeatSeconds is the expected telemetry cadence; a processor
	// that has reported at least once and then stays silent for
	// MissedHeartbeats intervals is declared dead.
	HeartbeatSeconds float64 `json:"heartbeatSeconds,omitempty"`
	MissedHeartbeats int     `json:"missedHeartbeats,omitempty"`
	// RecoverHeartbeats is the readmission hysteresis: consecutive
	// beats a timed-out processor must deliver before it counts as
	// alive again. Crash-reported processors never return.
	RecoverHeartbeats int `json:"recoverHeartbeats,omitempty"`
	// WindowSize and MinSamples shape the rolling failure-count
	// baseline; AnomalySigma is the deviation threshold.
	WindowSize   int     `json:"windowSize,omitempty"`
	MinSamples   int     `json:"minSamples,omitempty"`
	AnomalySigma float64 `json:"anomalySigma,omitempty"`
	// CooldownSeconds is the quiet period after every remap attempt;
	// BreakerWindowSeconds and MaxRemapsPerWindow form the circuit
	// breaker (at most MaxRemapsPerWindow submissions per trailing
	// window).
	CooldownSeconds      float64 `json:"cooldownSeconds,omitempty"`
	BreakerWindowSeconds float64 `json:"breakerWindowSeconds,omitempty"`
	MaxRemapsPerWindow   int     `json:"maxRemapsPerWindow,omitempty"`
	// MaxDecisions bounds the retained decision log.
	MaxDecisions int `json:"maxDecisions,omitempty"`
}

// ToPolicy converts the wire policy to the controller's form. A nil
// receiver yields the zero Policy (all defaults).
func (p *FleetPolicy) ToPolicy() fleet.Policy {
	if p == nil {
		return fleet.Policy{}
	}
	return fleet.Policy{
		HeartbeatInterval: time.Duration(p.HeartbeatSeconds * float64(time.Second)),
		MissedHeartbeats:  p.MissedHeartbeats,
		RecoverHeartbeats: p.RecoverHeartbeats,
		WindowSize:        p.WindowSize,
		MinSamples:        p.MinSamples,
		AnomalySigma:      p.AnomalySigma,
		Cooldown:          time.Duration(p.CooldownSeconds * float64(time.Second)),
		BreakerWindow:     time.Duration(p.BreakerWindowSeconds * float64(time.Second)),
		MaxRemaps:         p.MaxRemapsPerWindow,
		MaxDecisions:      p.MaxDecisions,
	}
}

// FleetRegisterRequest registers a running deployment for continuous
// adaptation ("POST /v1/fleet/deployments"): the controller watches its
// telemetry and autonomously re-optimizes the mapping when reliability
// drifts below MinReliability or a processor dies. Bounds carry the
// period/latency constraints handed to remap searches (period 0 means
// the initial mapping's worst case — leave slack if remaps should have
// room to re-replicate). Search tunes remap searches; remap i runs
// with seed Seed+i, a missing or zero Seed counting as 1.
type FleetRegisterRequest struct {
	ID             string        `json:"id"`
	Instance       Instance      `json:"instance"`
	Mapping        Mapping       `json:"mapping"`
	Bounds         Bounds        `json:"bounds,omitzero"`
	MinReliability float64       `json:"minReliability"`
	Mission        float64       `json:"mission,omitempty"`
	Search         *SearchParams `json:"search,omitempty"`
	Policy         *FleetPolicy  `json:"policy,omitempty"`
}

// FleetDeployment is the wire snapshot of one registered deployment
// ("GET /v1/fleet/deployments/{id}").
type FleetDeployment = fleet.Status

// FleetDecision is one entry of a deployment's decision log, streamed
// over "GET /v1/fleet/deployments/{id}/events" (SSE).
type FleetDecision = fleet.Decision

// FleetEvent is one telemetry observation ("heartbeat", "crash",
// "failures") fed through "POST /v1/fleet/deployments/{id}/events".
type FleetEvent = fleet.Event

// FleetListResponse carries every deployment in registration order
// ("GET /v1/fleet/deployments").
type FleetListResponse struct {
	Deployments []FleetDeployment `json:"deployments"`
}

// FleetEventsRequest feeds telemetry events to a deployment; they take
// effect, in order, at the controller's next tick.
type FleetEventsRequest struct {
	Events []FleetEvent `json:"events"`
}

// FleetEventsResponse acknowledges accepted telemetry events.
type FleetEventsResponse struct {
	Accepted int `json:"accepted"`
}

// FleetDeregisteredEvent is the SSE payload sent when a watched
// deployment is removed.
type FleetDeregisteredEvent struct {
	ID string `json:"id"`
}
