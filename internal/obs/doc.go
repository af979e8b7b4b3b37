// Package obs is the zero-dependency observability core of the stack:
// a metrics registry (counters, gauges and histograms, optionally
// labelled) with Prometheus text exposition, lightweight structured
// tracing (per-request trace/span IDs propagated through
// context.Context into a bounded in-memory recorder), and a
// stage-observer hook that lets solver internals report named phases
// (DP table build, search restarts, Monte-Carlo replication sweeps,
// parallel shard fan-outs) without the solvers knowing anything about
// metrics or traces.
//
// Everything here is strictly observation-only: no instrument, span or
// stage event ever influences a solver's answer, and every entry point
// is safe to call with a nil receiver, a nil context or no observer
// installed, so instrumented code paths cost almost nothing when
// nothing is listening. The service (internal/service) owns the one
// Registry and Recorder of the process and exposes them at /metrics
// (Prometheus text format) and /debug/traces.
package obs
