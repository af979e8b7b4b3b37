package relpipe

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
)

// JobsClient is a minimal Go client for the service's async job API
// (POST/GET/DELETE /v1/jobs, see API.md). The zero value is not usable;
// set BaseURL (e.g. "http://localhost:8080"). It exists so programs —
// relpipe jobs among them — drive the jobs flow with the same DTOs the
// server uses instead of hand-rolling HTTP and SSE plumbing.
//
// Against a cluster (cmd/serve -peers), BaseURL may point at any
// member: jobs are any-node, so Status, Watch, Cancel and List work
// regardless of which node accepted the Submit. A job's ID names its
// home node on the ring, so the service answers with one Owner lookup
// and one hop (SSE watches are proxied from it); only List asks every
// member. JobStatus.Node reports where the job actually runs.
type JobsClient struct {
	// BaseURL is the service root, without the /v1 prefix.
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil. Watch holds
	// its connection open for the job's lifetime, so a client with a
	// short Timeout will sever long watches.
	HTTPClient *http.Client
}

func (c *JobsClient) api() transport { return newTransport(c.BaseURL, c.HTTPClient, "jobs") }

// jobPath builds a /v1/jobs/{id}[/suffix] path with the id path-escaped
// (ids are hex today, but the server owns that format, not us).
func jobPath(id, suffix string) string {
	return "/v1/jobs/" + url.PathEscape(id) + suffix
}

// Submit submits one async job: kind names the endpoint and request is
// its request document (marshaled if not already a json.RawMessage or
// []byte). It returns the accepted job's status — already terminal when
// the result was cached.
func (c *JobsClient) Submit(ctx context.Context, kind string, request any, client string) (JobStatus, error) {
	var raw json.RawMessage
	switch r := request.(type) {
	case json.RawMessage:
		raw = r
	case []byte:
		raw = r
	default:
		b, err := json.Marshal(request)
		if err != nil {
			return JobStatus{}, err
		}
		raw = b
	}
	var st JobStatus
	err := c.api().call(ctx, http.MethodPost, "/v1/jobs",
		JobSubmitRequest{Kind: kind, Request: raw, Client: client}, &st, http.StatusAccepted)
	return st, err
}

// Status fetches one job snapshot.
func (c *JobsClient) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.api().call(ctx, http.MethodGet, jobPath(id, ""), nil, &st, http.StatusOK)
	return st, err
}

// Cancel requests cancellation and returns the job's current snapshot
// (the state flips to cancelled once the solver observes its context).
func (c *JobsClient) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.api().call(ctx, http.MethodDelete, jobPath(id, ""), nil, &st, http.StatusOK)
	return st, err
}

// List fetches every stored job, newest first; client filters when
// non-empty.
func (c *JobsClient) List(ctx context.Context, client string) ([]JobStatus, error) {
	path := "/v1/jobs"
	if client != "" {
		path += "?client=" + url.QueryEscape(client)
	}
	var lr JobListResponse
	if err := c.api().call(ctx, http.MethodGet, path, nil, &lr, http.StatusOK); err != nil {
		return nil, err
	}
	return lr.Jobs, nil
}

// ErrJobShutdown is returned by Watch when the server begins shutting
// down before the job finished (its status stays queryable until the
// server exits).
var ErrJobShutdown = errors.New("relpipe: server shutting down")

// Watch streams a job's SSE events, invoking fn for every status
// snapshot (including the initial one), and returns the terminal
// status. Progress is monotone: the server clamps out-of-order reports
// from its parallel workers. Cancel ctx to stop watching (the job keeps
// running; use Cancel to stop it).
func (c *JobsClient) Watch(ctx context.Context, id string, fn func(JobStatus)) (JobStatus, error) {
	var last JobStatus
	err := c.api().stream(ctx, jobPath(id, "/events"), func(event string, data []byte) (bool, error) {
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return true, err
		}
		last = st
		if fn != nil {
			fn(st)
		}
		switch event {
		case "done":
			return true, nil
		case "shutdown":
			return true, ErrJobShutdown
		}
		return false, nil
	})
	return last, err
}
