// Package service is the concurrent solver service: a stdlib-only HTTP
// JSON API over the relpipe solvers. Every solve endpoint shares one
// execution path — a bounded worker pool sized from GOMAXPROCS with
// queue backpressure (429 + Retry-After when full), an LRU result cache
// keyed by the canonical hash of (instance, parameters, method), and
// in-flight deduplication so identical concurrent requests share one
// underlying solve. /healthz reports liveness, /metrics exposes the
// counters, and per-request timeouts bound the wait for a solve.
//
// Endpoints (all solve endpoints are POST, JSON in/out):
//
//	POST   /v1/optimize        relpipe.OptimizeRequest  → relpipe.OptimizeResponse
//	POST   /v1/evaluate        relpipe.EvaluateRequest  → relpipe.EvaluateResponse
//	POST   /v1/minperiod       relpipe.MinPeriodRequest → relpipe.OptimizeResponse
//	POST   /v1/frontier        relpipe.FrontierRequest  → relpipe.FrontierResponse
//	POST   /v1/mincost         relpipe.MinCostRequest   → relpipe.MinCostResponse
//	POST   /v1/simulate        relpipe.SimulateRequest  → relpipe.SimulateResponse
//	POST   /v1/adapt           relpipe.AdaptRequest     → relpipe.AdaptResponse
//	POST   /v1/batch           relpipe.BatchRequest     → relpipe.BatchResponse
//	POST   /v1/jobs            relpipe.JobSubmitRequest → relpipe.JobStatus (202)
//	GET    /v1/jobs            job list (optional ?client=)
//	GET    /v1/jobs/{id}       relpipe.JobStatus
//	GET    /v1/jobs/{id}/events  SSE progress stream (see jobs.go)
//	DELETE /v1/jobs/{id}       cancel → relpipe.JobStatus
//	GET    /healthz            {"status":"ok"}
//	GET    /metrics            Prometheus text exposition of every counter
//
// Status codes: 200 success; 202 job accepted; 400 malformed or invalid
// input; 404/405 unknown route, job or method; 413 oversized body; 422
// no feasible mapping; 429 queue full or job caps reached (always with
// Retry-After, estimated from the current backlog); 500 solver panic;
// 503 shutting down; 504 solve exceeded the request timeout (the solve
// itself is not preempted on the synchronous path — the client stops
// waiting; async jobs ARE preempted on DELETE through the solvers'
// context plumbing).
//
// See API.md at the repository root for the complete HTTP reference.
package service
