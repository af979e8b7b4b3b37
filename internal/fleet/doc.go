// Package fleet is the control plane that keeps live deployments
// reliable: where the rest of the module computes a mapping once, fleet
// operates mappings over time. A Controller holds registered
// deployments (instance + running mapping + reliability floor +
// guard-rail policy), ingests telemetry events (heartbeats, crash
// reports, observed per-interval failure counts) into bounded rolling
// windows with baseline-deviation anomaly detection, and re-evaluates
// each deployment's reliability with dead processors masked out. When
// reliability drifts below the floor — or a processor is declared dead
// after K missed heartbeats — the controller autonomously submits a
// remap through a Submitter (the service wires this to the jobs engine
// and runs search.Repair, the repair search internal/adapt shares) and
// adopts the result under search.Adopt: when it meets the bounds, or
// when the running mapping is down.
//
// Guard rails are first-class: a cooldown after every remap attempt, a
// per-deployment circuit breaker capping remap submissions per trailing
// window, and heartbeat hysteresis (K consecutive missed intervals to
// declare a processor dead, R consecutive beats to readmit it) so a
// flapping node cannot trigger remap storms.
//
// The controller is deterministic by construction: it runs on an
// injected clock (internal/clock), applies events only on tick
// boundaries in arrival order, iterates deployments in registration
// order, and derives every remap seed from the deployment's spec — so a
// fake clock plus a scripted event sequence reproduces the decision log
// and the submitted remap results bit-identically run-to-run, at any
// search parallelism.
package fleet
