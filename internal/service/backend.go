package service

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"relpipe/internal/cluster"
	"relpipe/internal/obs"
	"relpipe/internal/progress"
)

// This file is the dispatch path of the service: every request kind —
// synchronous solves, batch items, async jobs, forwarded hops — is
// built by newRequest and executes through execute (the synchronous
// contract) or executeWait (the async-job contract), so "where does
// this solve run" is decided in exactly one place, remoteOwner. Both
// contracts read the result cache once (lookup); a request another
// node owns is then forwarded to that owner, with a local solve as the
// fallback when the owner is unreachable, and anything else is solved
// here. Every solve marshals through the same solveToBytes, which is
// what keeps cluster responses byte-identical to single-node ones.

// Request is one parsed unit of solver work.
type Request struct {
	// Kind is the endpoint name ("optimize", "simulate", ...) — also the
	// /v1 path segment a forwarded request replays against.
	Kind string
	// Key is the canonical result-cache key, kind-prefixed.
	Key string
	// Route is the consistent-hash routing key: the instance's canonical
	// hash (the leading segment of every parser's cache key), so all
	// work on one instance — whatever the endpoint or knobs — lands on
	// one owner node and shares its cache locality.
	Route string
	// Body is the original request document; forwarding replays it
	// verbatim, and the owner's parser rebuilds the identical solve.
	Body []byte

	solve solveFunc
	// forwarded marks a hop another cluster node routed here: it always
	// executes on this node, so a request is forwarded at most once.
	forwarded bool
}

// newRequest counts one logical request of kind, parses body and keys
// the result: the one place a Request is built.
func (s *Server) newRequest(kind string, parse parser, body []byte) (Request, error) {
	s.metrics.Request(kind)
	key, solve, err := parse(body, s.exec)
	if err != nil {
		return Request{}, err
	}
	return Request{
		Kind:  kind,
		Key:   kind + "|" + key,
		Route: routeKey(key),
		Body:  body,
		solve: solve,
	}, nil
}

// routeKey extracts the routing key from a cache key: the leading
// |-separated segment, which every endpoint parser builds from
// Instance.Canonical() (a hex hash, so it never contains '|').
func routeKey(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// lookup is the per-request result-cache read, recorded as the
// request's cache span and counted as a hit or a miss.
func (s *Server) lookup(ctx context.Context, key string) (outcome, bool) {
	t0 := time.Now()
	b, ok := s.cache.Get(key)
	obs.RecordSpan(ctx, "cache", t0, time.Now(), map[string]string{"hit": strconv.FormatBool(ok)})
	if !ok {
		s.metrics.CacheMiss()
		return outcome{}, false
	}
	s.metrics.CacheHit()
	return outcome{status: http.StatusOK, body: b}, true
}

// remoteOwner names the cluster node that should execute req, or ""
// when this node executes it: a single-node server, a route this node
// owns, or a forwarded hop.
func (s *Server) remoteOwner(req Request) string {
	cl := s.Cluster()
	if cl == nil || req.forwarded {
		return ""
	}
	if owner := cl.Owner(req.Route); owner != cl.Self() {
		return owner
	}
	return ""
}

// execute is the synchronous contract: fail-fast 429 when the queue is
// full, the service request timeout bounds the wait, and the solve
// itself is detached from the caller. ctx is the request context, used
// only for observability and the forward hop. A remote-owned request
// forwards to its owner — after the local cache read, so the path is
// local LRU → owner node → solve — and falls back to a local solve when
// that owner is unreachable.
func (s *Server) execute(ctx context.Context, req Request) outcome {
	if out, ok := s.lookup(ctx, req.Key); ok {
		return out
	}
	owner := s.remoteOwner(req)
	if owner == "" {
		return s.solve(ctx, req)
	}
	cl := s.Cluster()
	// Collapse concurrent identical forwards into one hop — the
	// entry-node half of the cluster-wide singleflight (the owner's own
	// flight group is the other half). A separate group from s.flights:
	// the local-solve fallback below runs inside this flight and enters
	// s.flights itself, which must not be a self-join.
	flightStart := time.Now()
	v, _, shared := s.forwards.Do(req.Key, func() (any, error) {
		hctx, cancel := context.WithTimeout(ctx, cl.HopTimeout())
		defer cancel()
		if out, answered := s.forward(hctx, cl, owner, req, false); answered {
			return out, nil
		}
		if ctx.Err() != nil {
			// The client itself is gone (not the hop bound): nothing
			// to fall back for.
			return errorOutcome(statusFor(ctx.Err()), ctx.Err()), nil
		}
		s.metrics.ClusterFallback(owner)
		return s.solve(ctx, req), nil
	})
	if shared {
		s.metrics.DedupJoin()
		obs.RecordSpan(ctx, "dedup.wait", flightStart, time.Now(), nil)
	}
	return v.(outcome)
}

// solve runs req on this node under the synchronous contract: flight
// group (in-flight dedup) → bounded worker pool.
func (s *Server) solve(ctx context.Context, req Request) outcome {
	flightStart := time.Now()
	v, _, shared := s.flights.Do(req.Key, func() (any, error) {
		// The flight for this key may have landed between our cache miss
		// and becoming leader; re-check so a late arrival serves the
		// cached result instead of re-solving.
		if cached, ok := s.cache.Get(req.Key); ok {
			s.metrics.CacheHit()
			return outcome{status: http.StatusOK, body: cached}, nil
		}
		// The solve is detached from any single request's context so
		// that deduplicated followers and the cache can use its result
		// even if the initiating client goes away; the service timeout
		// still bounds the wait. Marshaling and caching happen on the
		// worker side: a solve that outlives the timeout (its waiter
		// already got 504) still lands in the cache, so the next
		// identical request is a hit instead of another doomed solve.
		// The leader's observation scope (trace and stage observer)
		// rides along on the detached context — observation only,
		// never cancellation.
		execCtx := obs.Detach(ctx)
		waitCtx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		enqueued := time.Now()
		val, err := s.pool.Do(waitCtx, func() (any, error) {
			obs.RecordSpan(execCtx, "queue.wait", enqueued, time.Now(), nil)
			return s.solveToBytes(execCtx, req, nil)
		})
		if err != nil {
			return errorOutcome(statusFor(err), err), nil
		}
		return outcome{status: http.StatusOK, body: val.([]byte)}, nil
	})
	if shared {
		s.metrics.DedupJoin()
		obs.RecordSpan(ctx, "dedup.wait", flightStart, time.Now(), nil)
	}
	out := v.(outcome)
	if out.status == http.StatusTooManyRequests {
		s.metrics.Rejected()
	}
	return out
}

// executeWait is the async-job contract: block for a worker slot
// instead of shedding 429, no request timeout, and ctx (the job's
// context) cancels the solve. running and report — both optional —
// observe the queued→running transition and solver progress. A
// remote-owned request forwards to its owner with the forward hop as
// the running phase, and falls back to a local solve when that owner is
// unreachable.
func (s *Server) executeWait(ctx context.Context, req Request, running func(), report progress.Func) outcome {
	if out, ok := s.lookup(ctx, req.Key); ok {
		return out
	}
	if owner := s.remoteOwner(req); owner != "" {
		if running != nil {
			running()
			running = nil
		}
		// No hop timeout on async forwards: the job's own context is the
		// cancellation bound (cancelling the job severs the hop, and the
		// owner's solve observes the disconnect).
		if out, answered := s.forward(ctx, s.Cluster(), owner, req, true); answered {
			return out
		}
		if ctx.Err() != nil {
			return errorOutcome(statusFor(ctx.Err()), ctx.Err())
		}
		s.metrics.ClusterFallback(owner)
	}
	enqueued := time.Now()
	val, err := s.pool.DoWait(ctx, func() (any, error) {
		obs.RecordSpan(ctx, "queue.wait", enqueued, time.Now(), nil)
		if running != nil {
			running()
		}
		return s.solveToBytes(ctx, req, report)
	})
	if err != nil {
		return errorOutcome(statusFor(err), err)
	}
	return outcome{status: http.StatusOK, body: val.([]byte)}
}

// forward replays the request against the owner's own endpoint and
// classifies the result: answered=false means the owner is unreachable
// (transport error or 502/503) and the caller should fall back to a
// local solve; any definite answer — success, the owner's backpressure,
// the request's own 4xx — is relayed verbatim. Successful bodies are
// cached locally so the next identical request on this node skips the
// hop entirely.
func (s *Server) forward(ctx context.Context, cl *cluster.Cluster, owner string, req Request, async bool) (outcome, bool) {
	t0 := time.Now()
	status, body, err := cl.Forward(ctx, owner, http.MethodPost, "/v1/"+req.Kind, req.Body, async)
	attrs := map[string]string{"peer": owner}
	if err != nil {
		attrs["error"] = err.Error()
	} else {
		attrs["status"] = strconv.Itoa(status)
	}
	obs.RecordSpan(ctx, "cluster.forward", t0, time.Now(), attrs)
	s.metrics.ClusterForward(owner, time.Since(t0).Seconds())
	if cluster.Unavailable(status, err) {
		s.metrics.ClusterForwardError(owner)
		return outcome{}, false
	}
	if status == http.StatusOK {
		s.cache.Put(req.Key, body)
	}
	return outcome{status: status, body: body, node: owner}, true
}
