package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"relpipe"
	"relpipe/internal/fleet"
	"relpipe/internal/jobs"
	"relpipe/internal/jsonscan"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/search"
)

// This file is the HTTP face of the fleet controller (internal/fleet):
// registration and telemetry for continuously adapted deployments, and
// the SSE decision stream. The controller's autonomous remaps execute
// as ordinary async jobs (fleetSubmitter below), so they show up in
// /v1/jobs, stream progress, and obey the engine's capacity caps.

// fleetClient is the jobs-engine client id autonomous remaps are
// submitted under (visible in GET /v1/jobs?client=fleet).
const fleetClient = "fleet"

// fleetSubmitter runs the controller's remap requests as async jobs on
// the shared engine and worker pool. Every submission counts against
// the dedicated fleetClient id, so a misconfigured controller storms
// into its *own* per-client cap — 429 at the engine, breaker-open at
// the controller — and can never evict or starve interactive users'
// jobs. SubmitRemap is called with the controller's lock held, so it
// only admits the job; the solve runs on the job's goroutine inside a
// pool slot.
type fleetSubmitter struct{ s *Server }

// fleetRemapResult is the job outcome body of one autonomous remap —
// what GET /v1/jobs/{id} reports once the re-optimization finishes.
type fleetRemapResult struct {
	DeploymentID string          `json:"deploymentId"`
	Reason       string          `json:"reason"`
	OK           bool            `json:"ok"`
	Mapping      mapping.Mapping `json:"mapping"`
	Eval         mapping.Eval    `json:"eval"`
}

func (fs *fleetSubmitter) SubmitRemap(r fleet.Remap) (<-chan fleet.RemapOutcome, error) {
	s := fs.s
	out := make(chan fleet.RemapOutcome, 1)
	_, err := s.admitJob("fleet-remap", fleetClient, "fleet remap "+r.DeploymentID,
		func(ctx context.Context, ctl jobs.Control, root *obs.SpanHandle) jobs.Outcome {
			root.SetAttr("deployment", r.DeploymentID)
			root.SetAttr("reason", r.Reason)
			res, err := s.pool.DoWait(ctx, func() (any, error) {
				ctl.Running()
				// The job's context cancels the search (DELETE, shutdown)
				// and carries its observation scope (admitJob); restarts
				// report as the job's progress.
				result, ok, err := search.Repair(r.Chain, r.Platform, r.Mapping, r.Alive, search.Options{
					Period:      r.Period,
					Latency:     r.Latency,
					Restarts:    r.Restarts,
					Budget:      r.Budget,
					Seed:        r.Seed,
					Parallelism: s.exec.parallelism,
					Context:     ctx,
					Progress:    ctl.Progress,
				})
				if err != nil {
					return nil, err
				}
				return fleetRemapResult{
					DeploymentID: r.DeploymentID,
					Reason:       r.Reason,
					OK:           ok,
					Mapping:      result.M,
					Eval:         result.Ev,
				}, nil
			})
			if err != nil {
				out <- fleet.RemapOutcome{Err: err.Error()}
				return errorOutcomeJob(err)
			}
			fr := res.(fleetRemapResult)
			out <- fleet.RemapOutcome{OK: fr.OK, Mapping: fr.Mapping}
			b, err := json.Marshal(fr)
			if err != nil {
				return errorOutcomeJob(fmt.Errorf("%w: %v", errEncodeResponse, err))
			}
			root.SetAttr("ok", strconv.FormatBool(fr.OK))
			return jobs.Outcome{Status: http.StatusOK, Body: b}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// handleFleetRegister admits a deployment ("POST /v1/fleet/deployments").
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	body, status, err := readBody(w, r)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	var req relpipe.FleetRegisterRequest
	if err := jsonscan.Strict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := fleet.Spec{
		ID:             req.ID,
		Chain:          req.Instance.Chain,
		Platform:       req.Instance.Platform,
		Mapping:        req.Mapping,
		Period:         req.Bounds.Period,
		Latency:        req.Bounds.Latency,
		MinReliability: req.MinReliability,
		Mission:        req.Mission,
		Policy:         req.Policy.ToPolicy(),
	}
	// Same caps as the synchronous search endpoints: a deployment must
	// not be a standing grant of unbounded solver work.
	o, err := s.exec.checkSearch(req.Search)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	o = s.exec.capDefaults(o, search.DefaultRestarts, search.DefaultBudget(len(spec.Chain)))
	spec.Restarts, spec.Budget, spec.Seed = o.Restarts, o.Budget, o.Seed
	st, err := s.fleet.Register(spec)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, st)
}

// handleFleetList serves every deployment in registration order
// ("GET /v1/fleet/deployments").
func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	list := s.fleet.List()
	if list == nil {
		list = []fleet.Status{}
	}
	s.writeJSON(w, http.StatusOK, relpipe.FleetListResponse{Deployments: list})
}

// handleFleetStatus serves one deployment snapshot
// ("GET /v1/fleet/deployments/{id}").
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	st, ok := s.fleet.Status(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fleet.ErrNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleFleetDeregister removes a deployment and answers its final
// snapshot ("DELETE /v1/fleet/deployments/{id}"). An in-flight remap
// job keeps running to completion; its outcome is simply discarded.
func (s *Server) handleFleetDeregister(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	id := r.PathValue("id")
	st, ok := s.fleet.Status(id)
	if !ok || !s.fleet.Deregister(id) {
		s.writeError(w, http.StatusNotFound, fleet.ErrNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleFleetIngest buffers telemetry events for a deployment
// ("POST /v1/fleet/deployments/{id}/events"); they take effect at the
// next controller tick.
func (s *Server) handleFleetIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	body, status, err := readBody(w, r)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	var req relpipe.FleetEventsRequest
	if err := jsonscan.Strict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Events) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("fleet: no events"))
		return
	}
	n, err := s.fleet.Ingest(r.PathValue("id"), req.Events)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, relpipe.FleetEventsResponse{Accepted: n})
}

// handleFleetEvents streams a deployment's decision log over
// Server-Sent Events ("GET /v1/fleet/deployments/{id}/events"): an
// immediate "status" event with the current snapshot, one "decision"
// event per controller decision (?after=SEQ resumes past already-seen
// entries), a "deregistered" event if the deployment is removed, and a
// final "shutdown" event when the server begins draining.
func (s *Server) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("fleet")
	id := r.PathValue("id")
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: bad after: %v", err))
			return
		}
		after = n
	}
	ch, ok := s.fleet.Subscribe(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fleet.ErrNotFound)
		return
	}
	defer s.fleet.Unsubscribe(id, ch)
	fl := s.openSSE(w, "fleet")
	if fl == nil {
		return
	}

	st, ok := s.fleet.Status(id)
	if !ok {
		writeSSE(w, fl, "deregistered", relpipe.FleetDeregisteredEvent{ID: id})
		return
	}
	writeSSE(w, fl, "status", st)
	for {
		decs, ok := s.fleet.DecisionsSince(id, after)
		if !ok {
			writeSSE(w, fl, "deregistered", relpipe.FleetDeregisteredEvent{ID: id})
			return
		}
		for _, d := range decs {
			writeSSE(w, fl, "decision", d)
			after = d.Seq
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.shutdownC:
			if st, ok := s.fleet.Status(id); ok {
				writeSSE(w, fl, "shutdown", st)
			}
			return
		}
	}
}
