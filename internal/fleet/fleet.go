package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"relpipe/internal/core"
	"relpipe/internal/mapping"
)

// Errors the service maps to HTTP statuses (404 / 409 / 429); every
// other Register/Ingest error is a 400-style validation failure.
var (
	// ErrNotFound means no deployment carries the requested id.
	ErrNotFound = errors.New("fleet: no such deployment")
	// ErrExists means the id is already registered.
	ErrExists = errors.New("fleet: deployment id already registered")
	// ErrFull means the controller is at its deployment cap.
	ErrFull = errors.New("fleet: deployment cap reached")
	// ErrClosed means the controller has been stopped.
	ErrClosed = errors.New("fleet: controller stopped")
)

// Policy is the per-deployment guard-rail configuration. Zero values
// select the defaults noted on each field.
type Policy struct {
	// HeartbeatInterval is the expected telemetry cadence (default
	// 10s). A processor that has reported at least once and then stays
	// silent for MissedHeartbeats intervals is declared dead;
	// processors that never report are assumed healthy (telemetry is
	// opt-in per processor).
	HeartbeatInterval time.Duration
	// MissedHeartbeats is K: silent intervals before a processor is
	// declared dead (default 3).
	MissedHeartbeats int
	// RecoverHeartbeats is the hysteresis on the way back: a
	// timed-out processor must deliver this many beats before it is
	// readmitted (default 3). Crash-reported processors are dead for
	// good and never readmitted.
	RecoverHeartbeats int
	// WindowSize bounds the rolling window of observed per-interval
	// failure counts (default 64).
	WindowSize int
	// MinSamples is how many window samples the baseline needs before
	// anomaly detection arms (default 8).
	MinSamples int
	// AnomalySigma flags a failure-count observation x as anomalous
	// when |x - mean| > AnomalySigma·stddev over the window (default
	// 3). Anomalies are recorded as decisions and force a reliability
	// re-evaluation; the floor, not the anomaly, decides remaps.
	AnomalySigma float64
	// Cooldown is the quiet period after every remap attempt —
	// adopted, infeasible or failed — before the next submission
	// (default 1m).
	Cooldown time.Duration
	// BreakerWindow and MaxRemaps form the circuit breaker: at most
	// MaxRemaps submissions (default 3) per trailing BreakerWindow
	// (default 10m); beyond that the breaker opens and triggers are
	// suppressed. A submission the Submitter rejects (e.g. the jobs
	// engine's per-client cap) opens the breaker immediately.
	BreakerWindow time.Duration
	MaxRemaps     int
	// MaxDecisions bounds the retained decision log (default 256).
	MaxDecisions int
}

func (p Policy) withDefaults() Policy {
	if p.HeartbeatInterval <= 0 {
		p.HeartbeatInterval = 10 * time.Second
	}
	if p.MissedHeartbeats <= 0 {
		p.MissedHeartbeats = 3
	}
	if p.RecoverHeartbeats <= 0 {
		p.RecoverHeartbeats = 3
	}
	if p.WindowSize <= 0 {
		p.WindowSize = 64
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 8
	}
	if p.AnomalySigma <= 0 {
		p.AnomalySigma = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Minute
	}
	if p.BreakerWindow <= 0 {
		p.BreakerWindow = 10 * time.Minute
	}
	if p.MaxRemaps <= 0 {
		p.MaxRemaps = 3
	}
	if p.MaxDecisions <= 0 {
		p.MaxDecisions = 256
	}
	return p
}

// Spec registers one deployment with the controller.
type Spec struct {
	// ID is the caller-chosen deployment name, unique per controller.
	ID string
	// Instance and Mapping are the running system: the mapping must be
	// valid for the instance.
	Instance core.Instance
	Mapping  mapping.Mapping
	// Period and Latency are the real-time bounds handed to remap
	// searches; Period <= 0 means the initial mapping's worst-case
	// period (the injection rate the deployment must sustain).
	Period, Latency float64
	// MinReliability is the per-data-set reliability floor in (0, 1):
	// the controller remaps when the masked mapping's reliability
	// drops below it.
	MinReliability float64
	// Mission, when positive, additionally reports the mission
	// survival probability over this duration in Status.
	Mission float64
	// Restarts, Budget and Seed tune remap searches (zero values pick
	// the search defaults; Seed 0 aliases 1, and remap i runs with
	// Seed+i, so every submission is a pure function of the spec and
	// the event script).
	Restarts, Budget int
	Seed             uint64
	// Policy holds the guard rails; zero fields take the controller's
	// defaults.
	Policy Policy
}

// EventType tags a telemetry event.
type EventType string

// Telemetry event kinds.
const (
	// EventHeartbeat reports processor Proc alive.
	EventHeartbeat EventType = "heartbeat"
	// EventCrash reports processor Proc permanently dead.
	EventCrash EventType = "crash"
	// EventFailures reports Value observed per-interval failures,
	// feeding the rolling baseline.
	EventFailures EventType = "failures"
)

// Event is one telemetry observation for a deployment. Events are
// buffered on ingest and applied in arrival order at the next tick, so
// their effects — and the decisions they cause — land on tick
// boundaries deterministically.
type Event struct {
	Type EventType `json:"type"`
	// Proc is the processor index (heartbeat and crash events).
	Proc int `json:"proc"`
	// Value is the observed failure count (failures events).
	Value float64 `json:"value,omitempty"`
}

// DecisionKind tags a controller decision.
type DecisionKind string

// Decision kinds, in rough lifecycle order.
const (
	DecisionRegistered    DecisionKind = "registered"
	DecisionProcDead      DecisionKind = "proc-dead"
	DecisionProcRecovered DecisionKind = "proc-recovered"
	DecisionAnomaly       DecisionKind = "anomaly"
	DecisionDrift         DecisionKind = "drift"
	DecisionDown          DecisionKind = "down"
	DecisionRemap         DecisionKind = "remap-submitted"
	DecisionAdopt         DecisionKind = "remap-adopted"
	DecisionRemapFailed   DecisionKind = "remap-failed"
	DecisionSuppressed    DecisionKind = "remap-suppressed"
)

// Decision is one entry of a deployment's decision log: what the
// controller concluded and why. The log is the deployment's audit
// trail, streamed over SSE and pinned byte-for-byte by the determinism
// tests.
type Decision struct {
	// Seq numbers decisions per deployment from 1, monotonically.
	Seq uint64 `json:"seq"`
	// Time is the controller tick that produced the decision.
	Time time.Time    `json:"time"`
	Kind DecisionKind `json:"kind"`
	// Proc is the processor the decision concerns, -1 when none.
	Proc int `json:"proc"`
	// Reason says why: "crash-report" vs "missed-heartbeats" for
	// proc-dead, "cooldown" vs "breaker" for remap-suppressed, the
	// error text for remap-failed.
	Reason string `json:"reason,omitempty"`
	// Reliability is the masked per-data-set reliability at decision
	// time (drift, down, remap and adopt decisions).
	Reliability float64 `json:"reliability,omitempty"`
	// Drift is floor - reliability, the histogram-observed gap (drift
	// and down decisions).
	Drift float64 `json:"drift,omitempty"`
	// Mapping is the adopted mapping, JSON-rendered (adopt decisions).
	Mapping string `json:"mapping,omitempty"`
}

// Baseline is the rolling failure-count baseline snapshot.
type Baseline struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Count  int     `json:"count"`
	Last   float64 `json:"last"`
}

// Status is one deployment's externally visible state — the GET
// /v1/fleet/deployments/{id} document.
type Status struct {
	ID        string    `json:"id"`
	CreatedAt time.Time `json:"createdAt"`
	// Mapping is the currently adopted mapping (dead replicas
	// included; Reliability masks them out).
	Mapping mapping.Mapping `json:"mapping"`
	// Reliability is the per-data-set success probability of the
	// mapping with dead processors masked; 0 when Down.
	Reliability float64 `json:"reliability"`
	// LogRel is log(Reliability), the precision-safe comparison key
	// (reliabilities near 1 collapse in linear space). Omitted when
	// Down.
	LogRel float64 `json:"logRel,omitempty"`
	// MissionReliability is the survival probability over
	// Spec.Mission (0 when no mission is configured or the system is
	// down).
	MissionReliability float64 `json:"missionReliability,omitempty"`
	Floor              float64 `json:"floor"`
	// Drifting is true while Reliability < Floor (or Down).
	Drifting bool `json:"drifting"`
	// Down is true when some interval has lost every replica.
	Down      bool  `json:"down"`
	DeadProcs []int `json:"deadProcs,omitempty"`
	// Degraded is true while a dead processor still holds a replica
	// in the adopted mapping — a remap trigger even above the floor.
	Degraded  bool     `json:"degraded"`
	Baseline  Baseline `json:"baseline"`
	Anomalous bool     `json:"anomalous"`
	// Breaker/cooldown state.
	BreakerOpen   bool      `json:"breakerOpen"`
	CooldownUntil time.Time `json:"cooldownUntil"`
	RemapInFlight bool      `json:"remapInFlight"`
	// Monotonic per-deployment counters: submissions, adoptions,
	// suppression episodes, failed attempts.
	Remaps           uint64 `json:"remaps"`
	RemapsAdopted    uint64 `json:"remapsAdopted"`
	RemapsSuppressed uint64 `json:"remapsSuppressed"`
	RemapsFailed     uint64 `json:"remapsFailed"`
	// Decisions is the retained decision log, oldest first.
	Decisions []Decision `json:"decisions,omitempty"`
}

// Remap is one autonomous re-optimization request the controller hands
// to its Submitter: search.Repair of the running Mapping over the
// surviving processors.
type Remap struct {
	DeploymentID string
	Instance     core.Instance
	// Alive is a snapshot: Alive[u] == false marks processor u dead.
	Alive []bool
	// Mapping is a snapshot of the running mapping, dead replicas
	// included; Repair masks them out.
	Mapping          mapping.Mapping
	Period, Latency  float64
	Restarts, Budget int
	Seed             uint64
	// Reason is "degraded" or "drift", for the job record.
	Reason string
}

// RemapOutcome is the Submitter's answer, delivered on the channel
// SubmitRemap returns. The controller polls it on tick boundaries.
type RemapOutcome struct {
	// OK means the result meets the period/latency bounds.
	OK      bool
	Mapping mapping.Mapping
	// Err is the solver error text, empty on success.
	Err string
}

// Submitter runs remap requests. The service implements it on the jobs
// engine (a dedicated fleet client id, the shared worker pool); tests
// implement it synchronously. SubmitRemap returns a one-element channel
// the outcome lands on, or an error when the request cannot be admitted
// at all (capacity) — an admission error opens the deployment's
// breaker. Implementations are called with the controller's lock held
// and must not call back into the Controller.
type Submitter interface {
	SubmitRemap(r Remap) (<-chan RemapOutcome, error)
}

// mapJSON renders a mapping for the decision log.
func mapJSON(m mapping.Mapping) string {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Sprintf("unrenderable: %v", err)
	}
	return string(b)
}
