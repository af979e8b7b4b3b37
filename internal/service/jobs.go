package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"relpipe"
	"relpipe/internal/jobs"
	"relpipe/internal/jsonscan"
	"relpipe/internal/obs"
)

// This file is the HTTP face of the async job engine (internal/jobs):
// submit-and-poll execution of the existing solve kinds with streaming
// progress over SSE and cancellation through the solvers' context
// plumbing.
//
// Execution and determinism: a job runs the same parsed solve closure
// through the same solveToBytes path (marshal + cache) as the
// synchronous endpoint, inside the same worker pool — so its result is
// bit-identical to the synchronous response for the same request, and a
// submitted key that is already cached completes the job instantly
// without occupying a worker. Unlike the fail-fast synchronous path, an
// admitted job *waits* for a pool slot (Pool.DoWait); backpressure
// moves to the job-store caps, which answer 429 + Retry-After.

// jobStatusCode is the submit answer for accepted jobs.
const jobStatusCode = http.StatusAccepted

// handleJobSubmit admits one async job ("POST /v1/jobs").
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("jobs")
	body, status, err := readBody(w, r)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	var req relpipe.JobSubmitRequest
	if err := jsonscan.Strict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.submitJob(req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, jobStatusCode, st)
}

// submitJob validates, dedups against the result cache, and admits a
// job. It returns the accepted job's status snapshot (already terminal
// for a cache hit).
func (s *Server) submitJob(sub relpipe.JobSubmitRequest) (relpipe.JobStatus, error) {
	var zero relpipe.JobStatus
	if sub.Kind == "batch" {
		return s.submitBatchJob(sub)
	}
	k, ok := kinds[sub.Kind]
	if !ok {
		return zero, fmt.Errorf("jobs: unknown kind %q", sub.Kind)
	}
	req, err := s.newRequest(sub.Kind, k.parse, sub.Request)
	if err != nil {
		return zero, err
	}
	// Dedup against the result cache: an async job for a cached key
	// completes instantly (no worker, no queue wait).
	if b, ok := s.cache.Get(req.Key); ok {
		s.metrics.CacheHit()
		j, err := s.jobs.SubmitCompleted(sub.Kind, sub.Client, jobs.Outcome{Status: http.StatusOK, Body: b})
		if err != nil {
			return zero, err
		}
		return relpipe.JobStatus(j.Status()), nil
	}
	// The solve runs under the async contract (executeWait): in cluster
	// mode a remote-owned instance forwards to its owner — cancelling
	// the job severs the hop — and an unreachable owner falls back to a
	// local solve, exactly like the sync path.
	j, err := s.admitJob(sub.Kind, sub.Client, "job "+sub.Kind, func(ctx context.Context, ctl jobs.Control, _ *obs.SpanHandle) jobs.Outcome {
		out := s.executeWait(ctx, req, ctl.Running, ctl.Progress)
		return jobs.Outcome{Status: out.status, Body: out.body}
	})
	if err != nil {
		return zero, err
	}
	return relpipe.JobStatus(j.Status()), nil
}

// admitJob is the one job-admission path: single-kind jobs, batch jobs
// and fleet remaps all enter here. When the server records traces it
// allocates the trace ID up front, so the returned job's status
// already carries it next to the job ID; without a recorder the job
// has none. It admits the job under client and runs run inside the
// job's root span (named span), under the stage observer. The root
// span's "status" attribute records the outcome's HTTP status; run may
// add attributes of its own.
func (s *Server) admitJob(kind, client, span string, run func(context.Context, jobs.Control, *obs.SpanHandle) jobs.Outcome) (*jobs.Job, error) {
	var tid string
	if s.recorder != nil {
		tid = obs.NewTraceID()
	}
	return s.jobs.Submit(context.Background(), kind, client, tid, func(ctx context.Context, ctl jobs.Control) jobs.Outcome {
		ctx, root := s.recorder.StartTraceID(obs.WithStageObserver(ctx, s.observer), tid, span)
		defer root.End()
		out := run(ctx, ctl, root)
		root.SetAttr("status", strconv.Itoa(out.Status))
		return out
	})
}

// submitBatchJob admits a whole /v1/batch document as one job: the
// items fan out through the shared batch skeleton (runBatchItems) but
// execute on the async path — each item honours the job's context (so
// DELETE aborts in-flight item solves), waits for a pool slot instead
// of shedding 429, and runs without the synchronous request timeout,
// exactly like a single-kind job. Progress counts completed items. The
// fan-out itself runs on the job's goroutine, never inside a pool
// slot: its items occupy the slots, and a fan-out holding a slot while
// waiting for them would deadlock a single-worker pool.
func (s *Server) submitBatchJob(sub relpipe.JobSubmitRequest) (relpipe.JobStatus, error) {
	var zero relpipe.JobStatus
	batch, err := s.parseBatch(sub.Request)
	if err != nil {
		return zero, err
	}
	j, err := s.admitJob(sub.Kind, sub.Client, "job batch", func(ctx context.Context, ctl jobs.Control, root *obs.SpanHandle) jobs.Outcome {
		ctl.Running()
		total := int64(len(batch.Jobs))
		ctl.Progress(0, total) // the item count is known up front
		root.SetAttr("items", strconv.FormatInt(total, 10))
		results := s.runBatchItems(batch.Jobs, func(req Request) outcome {
			if err := ctx.Err(); err != nil {
				return errorOutcome(statusFor(err), err)
			}
			return s.executeWait(ctx, req, nil, nil)
		}, func(done int64) { ctl.Progress(done, total) })
		if err := ctx.Err(); err != nil {
			return errorOutcomeJob(err)
		}
		b, err := json.Marshal(relpipe.BatchResponse{Results: results})
		if err != nil {
			return errorOutcomeJob(fmt.Errorf("%w: %v", errEncodeResponse, err))
		}
		return jobs.Outcome{Status: http.StatusOK, Body: b}
	})
	if err != nil {
		return zero, err
	}
	return relpipe.JobStatus(j.Status()), nil
}

// handleJobStatus serves one job snapshot ("GET /v1/jobs/{id}"). A job
// not stored here is asked of its ID's ring owner in one hop — submit
// on one node, poll from any node.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("jobs")
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.relayJob(w, r)
		return
	}
	s.writeJSON(w, http.StatusOK, relpipe.JobStatus(j.Status()))
}

// handleJobList serves every stored job, newest first, optionally
// filtered by ?client= ("GET /v1/jobs"). In cluster mode the listing
// merges every peer's jobs into one cluster-wide view (each entry's
// node field says where it runs).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("jobs")
	// relpipe.JobStatus is an alias of jobs.Status, so the snapshot
	// slice is already the wire type.
	list := s.jobs.Snapshot(r.URL.Query().Get("client"))
	list = s.clusterJobListMerge(r, list)
	s.writeJSON(w, http.StatusOK, relpipe.JobListResponse{Jobs: list})
}

// handleJobCancel requests cancellation ("DELETE /v1/jobs/{id}"). The
// answer is the job's current snapshot; the state flips to cancelled
// asynchronously, as soon as the solver observes its cancelled context
// (solvers poll between shards/iterations). Cancelling a terminal job
// is a no-op that returns its result. Jobs running on a cluster peer
// are cancelled through the same one-hop relay that serves their
// status.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("jobs")
	j, ok, _ := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.relayJob(w, r)
		return
	}
	s.writeJSON(w, http.StatusOK, relpipe.JobStatus(j.Status()))
}

// handleJobEvents streams a job's lifecycle over Server-Sent Events
// ("GET /v1/jobs/{id}/events"): an immediate "progress" event with the
// current snapshot, a "progress" event per observable change (monotone
// — the engine clamps out-of-order reports from parallel workers), and
// a terminal "done" event, after which the stream closes. Event data is
// the relpipe.JobStatus document. The stream also closes when the
// client disconnects or the server begins shutdown (final event
// "shutdown" carrying the last snapshot).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("jobs")
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.relayJobEvents(w, r)
		return
	}
	fl := s.openSSE(w, "jobs")
	if fl == nil {
		return
	}
	ch := j.Subscribe()
	defer j.Unsubscribe(ch)
	for {
		st := j.Status()
		if st.State.Terminal() {
			writeSSE(w, fl, "done", st)
			return
		}
		writeSSE(w, fl, "progress", st)
		select {
		case <-ch:
		case <-j.Done():
		case <-r.Context().Done():
			return
		case <-s.shutdownC:
			writeSSE(w, fl, "shutdown", j.Status())
			return
		}
	}
}

// errorOutcomeJob renders an error as a job outcome.
func errorOutcomeJob(err error) jobs.Outcome {
	out := errorOutcome(statusFor(err), err)
	return jobs.Outcome{Status: out.status, Body: out.body}
}
