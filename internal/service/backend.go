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

// This file is the dispatch seam of the service: every request kind —
// synchronous solves, batch items, async jobs — executes through one
// Backend, so "where does this solve run" is decided in exactly one
// place. localBackend is the single-node path (result cache → flight
// group → worker pool) the service has always had; clusterBackend
// layers consistent-hash routing on top, forwarding each request to the
// node that owns its instance and falling back to a local solve when
// that owner is unreachable. Both paths marshal through the same
// solveToBytes, which is what keeps cluster responses byte-identical to
// single-node ones.

// Request is one parsed unit of solver work flowing through the
// Backend seam.
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
}

// Backend executes parsed requests. Execute is the synchronous
// contract: fail-fast 429 when the queue is full, the service request
// timeout bounds the wait, the solve itself is detached from the
// caller. ExecuteWait is the async-job contract: block for a worker
// slot, no request timeout, ctx (the job's context) cancels the solve,
// and the hooks — both optional — observe the queued→running transition
// and solver progress.
type Backend interface {
	Execute(ctx context.Context, req Request) outcome
	ExecuteWait(ctx context.Context, req Request, running func(), report progress.Func) outcome
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

// localBackend runs requests on this node: result cache → flight group
// (in-flight dedup) → bounded worker pool.
type localBackend struct {
	s *Server
}

// Execute is the synchronous path (previously inlined in
// Server.process). ctx is the request context, used only for
// observability; cancellation deliberately does not flow into the solve
// — see the detachment comment below.
func (b localBackend) Execute(ctx context.Context, req Request) outcome {
	s := b.s
	t0 := time.Now()
	cached, ok := s.cache.Get(req.Key)
	obs.RecordSpan(ctx, "cache", t0, time.Now(), map[string]string{"hit": strconv.FormatBool(ok)})
	if ok {
		s.metrics.CacheHit()
		return outcome{status: http.StatusOK, body: cached}
	}
	s.metrics.CacheMiss()

	// Join the instance's solve batch for the whole flight — queue wait
	// included, so concurrent same-instance requests coalesce even when
	// one worker serializes their solves (see batcher.go). A nil entry
	// (no route) is inert.
	entry := s.batcher.join(req.Route)
	defer entry.leave()

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
		// The leader's trace and the stage observer ride along on the
		// detached context — observation only, never cancellation.
		execCtx := obs.WithStageObserver(obs.CopyTrace(context.Background(), ctx), s.metrics.StageObserver())
		waitCtx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		enqueued := time.Now()
		val, err := s.pool.Do(waitCtx, func() (any, error) {
			obs.RecordSpan(execCtx, "queue.wait", enqueued, time.Now(), nil)
			return s.solveToBytes(req.Key, req.solve, solveCtx{ctx: execCtx, tables: entry.provider})
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

// ExecuteWait is the async path (previously runAsyncSolve): re-check
// the cache (the flight for this key may have landed while the job
// queued), block for a pool slot under the job's context — no request
// timeout and no 429 shedding, that is the async contract — and run
// through the shared solveToBytes (marshal + cache). running, when
// non-nil, marks the queued→running transition once a worker picks the
// solve up.
func (b localBackend) ExecuteWait(ctx context.Context, req Request, running func(), report progress.Func) outcome {
	s := b.s
	ctx = obs.WithStageObserver(ctx, s.metrics.StageObserver())
	t0 := time.Now()
	cached, hit := s.cache.Get(req.Key)
	obs.RecordSpan(ctx, "cache", t0, time.Now(), map[string]string{"hit": strconv.FormatBool(hit)})
	if hit {
		s.metrics.CacheHit()
		return outcome{status: http.StatusOK, body: cached}
	}
	s.metrics.CacheMiss()
	entry := s.batcher.join(req.Route)
	defer entry.leave()
	enqueued := time.Now()
	val, err := s.pool.DoWait(ctx, func() (any, error) {
		obs.RecordSpan(ctx, "queue.wait", enqueued, time.Now(), nil)
		if running != nil {
			running()
		}
		return s.solveToBytes(req.Key, req.solve, solveCtx{ctx: ctx, progress: report, tables: entry.provider})
	})
	if err != nil {
		return errorOutcome(statusForJob(err), err)
	}
	return outcome{status: http.StatusOK, body: val.([]byte)}
}

// clusterBackend routes requests across the cluster: the consistent-
// hash owner of the instance executes, everyone else forwards to it —
// after checking the local cache (peer-aware read-through: local LRU →
// owner node → solve) — and falls back to a local solve when the owner
// is unreachable. Forwarded executions happen on the owner's
// localBackend inside its own flight group, so concurrent identical
// requests from every node collapse onto one solve cluster-wide.
type clusterBackend struct {
	s     *Server
	local localBackend
	cl    *cluster.Cluster
}

func (b *clusterBackend) Execute(ctx context.Context, req Request) outcome {
	owner := b.cl.Owner(req.Route)
	if owner == "" || owner == b.cl.Self() {
		return b.local.Execute(ctx, req)
	}
	s := b.s
	t0 := time.Now()
	cached, ok := s.cache.Get(req.Key)
	obs.RecordSpan(ctx, "cache", t0, time.Now(), map[string]string{"hit": strconv.FormatBool(ok)})
	if ok {
		s.metrics.CacheHit()
		return outcome{status: http.StatusOK, body: cached}
	}
	s.metrics.CacheMiss()

	// Collapse concurrent identical forwards into one hop — the
	// entry-node half of the cluster-wide singleflight (the owner's own
	// flight group is the other half). A separate group from s.flights:
	// the local-solve fallback below runs inside this flight and enters
	// s.flights itself, which must not be a self-join.
	flightStart := time.Now()
	v, _, shared := s.forwards.Do(req.Key, func() (any, error) {
		hctx, cancel := context.WithTimeout(ctx, b.cl.HopTimeout())
		defer cancel()
		out, answered := b.forward(hctx, owner, req, false)
		if !answered {
			if ctx.Err() != nil {
				// The client itself is gone (not the hop bound): nothing
				// to fall back for.
				return errorOutcome(statusForJob(ctx.Err()), ctx.Err()), nil
			}
			s.metrics.ClusterFallback(owner)
			return b.local.Execute(ctx, req), nil
		}
		return out, nil
	})
	if shared {
		s.metrics.DedupJoin()
		obs.RecordSpan(ctx, "dedup.wait", flightStart, time.Now(), nil)
	}
	return v.(outcome)
}

func (b *clusterBackend) ExecuteWait(ctx context.Context, req Request, running func(), report progress.Func) outcome {
	owner := b.cl.Owner(req.Route)
	if owner == "" || owner == b.cl.Self() {
		return b.local.ExecuteWait(ctx, req, running, report)
	}
	s := b.s
	t0 := time.Now()
	cached, ok := s.cache.Get(req.Key)
	obs.RecordSpan(ctx, "cache", t0, time.Now(), map[string]string{"hit": strconv.FormatBool(ok)})
	if ok {
		s.metrics.CacheHit()
		return outcome{status: http.StatusOK, body: cached}
	}
	s.metrics.CacheMiss()
	if running != nil {
		// The owner is doing the work; from this job's perspective the
		// forward hop is the running phase.
		running()
	}
	// No hop timeout on async forwards: the job's own context is the
	// cancellation bound (cancelling the job severs the hop, and the
	// owner's solve observes the disconnect).
	out, answered := b.forward(ctx, owner, req, true)
	if !answered {
		if ctx.Err() != nil {
			return errorOutcome(statusForJob(ctx.Err()), ctx.Err())
		}
		s.metrics.ClusterFallback(owner)
		return b.local.ExecuteWait(ctx, req, nil, report)
	}
	return out
}

// forward replays the request against the owner's own endpoint and
// classifies the result: answered=false means the owner is unreachable
// (transport error or 502/503) and the caller should fall back to a
// local solve; any definite answer — success, the owner's backpressure,
// the request's own 4xx — is relayed verbatim. Successful bodies are
// cached locally so the next identical request on this node skips the
// hop entirely.
func (b *clusterBackend) forward(ctx context.Context, owner string, req Request, async bool) (outcome, bool) {
	t0 := time.Now()
	status, body, err := b.cl.Forward(ctx, owner, http.MethodPost, "/v1/"+req.Kind, req.Body, async)
	attrs := map[string]string{"peer": owner}
	if err != nil {
		attrs["error"] = err.Error()
	} else {
		attrs["status"] = strconv.Itoa(status)
	}
	obs.RecordSpan(ctx, "cluster.forward", t0, time.Now(), attrs)
	b.s.metrics.ClusterForward(owner, time.Since(t0).Seconds())
	if cluster.Unavailable(status, err) {
		b.s.metrics.ClusterForwardError(owner)
		return outcome{}, false
	}
	if status == http.StatusOK {
		b.s.cache.Put(req.Key, body)
	}
	return outcome{status: status, body: body, node: owner}, true
}
