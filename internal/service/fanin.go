package service

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"relpipe"
	"relpipe/internal/jsonscan"
)

// This file is the cross-node half of the async-jobs surface in cluster
// mode. Jobs always run on the node that admitted them (the solve may
// forward, the job record never moves), so "submit on one node, poll or
// stream from any node" is a read-side problem: a node that does not
// know a job ID asks every peer in parallel and relays the first
// definite answer, merges peer listings into /v1/jobs, and proxies the
// SSE event stream from the job's home node. Every fan-out hop carries
// relpipe.ForwardedHeader, and forwarded job requests never fan out
// again — one hop, mirroring the solve path's loop prevention.

// faninHop bounds one job fan-in hop: status lookups are in-memory on
// the peer, so a short bound keeps a dead peer from stalling every
// cross-node poll for the full solve HopTimeout.
const faninHop = 5 * time.Second

// clusterJobFanIn asks every peer for a job this node does not know
// (GET for status, DELETE for cancel) and returns the first 200 answer.
// found=false means no peer knows it either — or this request already
// is a fan-in hop (never recurse), or the server is single-node.
func (s *Server) clusterJobFanIn(r *http.Request, method, path string) (outcome, bool) {
	cl := s.Cluster()
	if cl == nil || isForwarded(r) {
		return outcome{}, false
	}
	others := cl.Others()
	if len(others) == 0 {
		return outcome{}, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), faninHop)
	defer cancel()
	// One answer per peer on one channel: a peer's 200 can never be
	// counted as a miss.
	type answer struct {
		body []byte
		node string
		ok   bool
	}
	ch := make(chan answer, len(others))
	for _, peer := range others {
		go func(peer string) {
			status, body, err := cl.Forward(ctx, peer, method, path, nil, false)
			ch <- answer{body, peer, err == nil && status == http.StatusOK}
		}(peer)
	}
	for range others {
		if a := <-ch; a.ok {
			cancel() // the rest of the fan-out is moot
			return outcome{status: http.StatusOK, body: a.body, node: a.node}, true
		}
	}
	return outcome{}, false
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

// clusterJobEventsProxy relays a peer job's SSE stream through this
// node: locate the job's home node via the status fan-in, open its
// events endpoint, and copy the stream chunk-by-chunk with a flush per
// chunk so events keep their latency through the hop. Returns false
// when no peer knows the job (the caller answers 404). The proxy ends
// with the upstream stream, the client disconnecting, or this node's
// own shutdown (mirroring the local stream's shutdown contract).
func (s *Server) clusterJobEventsProxy(w http.ResponseWriter, r *http.Request) bool {
	cl := s.Cluster()
	if cl == nil || isForwarded(r) {
		return false
	}
	id := r.PathValue("id")
	node, ok := s.clusterJobLocate(r, id)
	if !ok {
		return false
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
	resp, err := cl.Stream(ctx, node, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/events")
	if err != nil {
		s.writeError(w, http.StatusBadGateway, err)
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		s.writeOutcome(w, outcome{status: resp.StatusCode, body: b, node: node})
		return true
	}
	w.Header().Set(relpipe.NodeHeader, node)
	fl := s.openSSE(w, "jobs")
	if fl == nil {
		return true
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true
			}
			fl.Flush()
		}
		if err != nil {
			return true
		}
	}
}

// clusterJobLocate finds which peer stores a job (its home node).
func (s *Server) clusterJobLocate(r *http.Request, id string) (string, bool) {
	out, found := s.clusterJobFanIn(r, http.MethodGet, "/v1/jobs/"+url.PathEscape(id))
	if !found {
		return "", false
	}
	return out.node, true
}
