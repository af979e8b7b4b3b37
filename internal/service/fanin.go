package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"relpipe"
	"relpipe/internal/cluster"
	"relpipe/internal/jsonscan"
)

// This file is the cross-node half of the async-jobs surface in cluster
// mode. A job runs on the node that admitted it (the solve may forward,
// the job record never moves), and that node mints only job IDs the
// ring assigns to itself (jobs.Engine.SetNode), so a job's home is the
// ring owner of its ID. A node asked about a job it does not store makes
// one Owner lookup (remoteOwner, keyed by the ID, as for solves) and one
// hop: status and cancel relay the owner's answer, and the SSE event
// stream is proxied from the owner. Only the /v1/jobs listing asks
// every peer and merges their answers. Every hop carries
// relpipe.ForwardedHeader, and forwarded job requests never hop again,
// mirroring the solve path's loop prevention.

// faninHop bounds one job status or cancel hop and each peer's listing:
// they are in-memory reads on the peer, so a short bound keeps a dead
// peer from stalling a cross-node poll for the full solve HopTimeout.
const faninHop = 5 * time.Second

var errNoSuchJob = errors.New("jobs: no such job")

// relayJob answers a status (GET) or cancel (DELETE) request for a job
// this node does not store: one hop to the ID's owner, whose answer is
// relayed verbatim. No owner, or an unreachable one, is a 404.
func (s *Server) relayJob(w http.ResponseWriter, r *http.Request) {
	if owner := s.remoteOwner(Request{Route: r.PathValue("id"), forwarded: isForwarded(r)}); owner != "" {
		ctx, cancel := context.WithTimeout(r.Context(), faninHop)
		defer cancel()
		status, body, err := s.Cluster().Forward(ctx, owner, r.Method, r.URL.EscapedPath(), nil, false)
		if !cluster.Unavailable(status, err) {
			s.writeOutcome(w, outcome{status: status, body: body, node: owner})
			return
		}
	}
	s.writeError(w, http.StatusNotFound, errNoSuchJob)
}

// clusterJobListMerge folds every peer's job listing into local (the
// cluster-wide /v1/jobs view), newest first like the engine's own
// snapshot. Unreachable peers contribute nothing — a partial listing
// beats a failed one.
func (s *Server) clusterJobListMerge(r *http.Request, local []relpipe.JobStatus) []relpipe.JobStatus {
	cl := s.Cluster()
	if cl == nil || isForwarded(r) {
		return local
	}
	others := cl.Others()
	if len(others) == 0 {
		return local
	}
	path := "/v1/jobs"
	if client := r.URL.Query().Get("client"); client != "" {
		path += "?client=" + url.QueryEscape(client)
	}
	ctx, cancel := context.WithTimeout(r.Context(), faninHop)
	defer cancel()
	ch := make(chan []relpipe.JobStatus, len(others))
	for _, peer := range others {
		go func(peer string) {
			status, body, err := cl.Forward(ctx, peer, http.MethodGet, path, nil, false)
			if err != nil || status != http.StatusOK {
				ch <- nil
				return
			}
			var resp relpipe.JobListResponse
			if err := jsonscan.Strict(body, &resp); err != nil {
				ch <- nil
				return
			}
			ch <- resp.Jobs
		}(peer)
	}
	merged := local
	for range others {
		merged = append(merged, <-ch...)
	}
	sort.Slice(merged, func(a, b int) bool {
		if !merged[a].CreatedAt.Equal(merged[b].CreatedAt) {
			return merged[a].CreatedAt.After(merged[b].CreatedAt)
		}
		return merged[a].ID < merged[b].ID
	})
	return merged
}

// relayJobEvents proxies the SSE stream of a job this node does not
// store from the ID's owner, copying it chunk by chunk with a flush per
// chunk so events keep their latency through the hop. The owner's
// non-200 answers are relayed verbatim; no owner, or an unreachable one
// (or one that does not answer within faninHop), is a 404. The proxy
// ends with the upstream stream, the client disconnecting, or this
// node's own shutdown (mirroring the local stream's shutdown contract).
func (s *Server) relayJobEvents(w http.ResponseWriter, r *http.Request) {
	owner := s.remoteOwner(Request{Route: r.PathValue("id"), forwarded: isForwarded(r)})
	if owner == "" {
		s.writeError(w, http.StatusNotFound, errNoSuchJob)
		return
	}
	// BeginShutdown must end proxied streams like local ones, so the
	// upstream request lives under a context this node's shutdown
	// cancels.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.shutdownC:
			cancel()
		case <-ctx.Done():
		}
	}()
	// Opening the stream is bounded like a status hop, so an owner that
	// accepts connections but never answers cannot hold the watch; the
	// stream itself is not.
	opening := time.AfterFunc(faninHop, cancel)
	resp, err := s.Cluster().Stream(ctx, owner, http.MethodGet, r.URL.EscapedPath())
	opening.Stop()
	if err != nil {
		s.writeError(w, http.StatusNotFound, errNoSuchJob)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, err := io.ReadAll(resp.Body)
		if cluster.Unavailable(resp.StatusCode, err) {
			s.writeError(w, http.StatusNotFound, errNoSuchJob)
			return
		}
		s.writeOutcome(w, outcome{status: resp.StatusCode, body: b, node: owner})
		return
	}
	w.Header().Set(relpipe.NodeHeader, owner)
	fl := s.openSSE(w, "jobs")
	if fl == nil {
		return
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return
		}
	}
}
