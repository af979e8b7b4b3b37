package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relpipe"
	"relpipe/internal/cluster"
	"relpipe/internal/cost"
	"relpipe/internal/fleet"
	"relpipe/internal/jobs"
	"relpipe/internal/jsonscan"
	"relpipe/internal/obs"
	"relpipe/internal/progress"
	"relpipe/internal/sim"
)

// Options configures a Server. Zero values select the defaults noted on
// each field.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueSize bounds pending solves before 429s (default 4×Workers).
	QueueSize int
	// CacheSize bounds the LRU result cache entries (default 1024;
	// negative disables caching).
	CacheSize int
	// RequestTimeout bounds the wait for one solve (default 30s).
	RequestTimeout time.Duration
	// MaxSearchRestarts and MaxSearchBudget cap the heuristic-search
	// knobs one request may ask for (defaults 32 restarts, 200000
	// iterations per restart); like maxReplications they keep a single
	// request from monopolizing a worker slot. Requests above the caps
	// get 400.
	MaxSearchRestarts int
	MaxSearchBudget   int
	// MaxJobs bounds the async job store (default 1024 jobs of every
	// state; terminal jobs are evicted oldest-first when full).
	// MaxJobsPerClient bounds one client's live jobs (default 16), and
	// JobTTL is how long terminal jobs stay queryable (default 10m).
	// See internal/jobs.
	MaxJobs          int
	MaxJobsPerClient int
	JobTTL           time.Duration
	// DisableFleet turns off the fleet controller and its /v1/fleet
	// routes (default on: the controller is idle until a deployment
	// registers, so it costs nothing unused).
	DisableFleet bool
	// FleetTick is the fleet control-loop period (default 1s) and
	// MaxDeployments its registration cap (default 1024).
	FleetTick      time.Duration
	MaxDeployments int
	// TraceCapacity bounds the in-memory trace recorder queryable at
	// /debug/traces (default 256 most-recent traces; negative disables
	// recording — spans become no-ops, X-Trace-Id still issued).
	TraceCapacity int
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
	// (default off: the profiling surface stays private unless an
	// operator opts in with cmd/serve's -pprof).
	EnablePprof bool
	// Logger receives one structured line per HTTP request (endpoint,
	// status, latency, trace ID). nil disables request logging — tests
	// and embedders stay quiet by default; cmd/serve always passes one.
	Logger *slog.Logger
	// SolverParallelism is the per-request parallelism budget handed to
	// the solvers (relpipe.Options.Parallelism): how many goroutines one
	// solve may use inside its worker slot. The default,
	// max(1, GOMAXPROCS/workers), composes the two concurrency layers
	// instead of oversubscribing: workers × SolverParallelism ≈
	// GOMAXPROCS, so a loaded pool keeps every core busy with distinct
	// requests while a lone heavy solve on an idle pool still spreads
	// over spare cores when workers < GOMAXPROCS. Negative forces
	// sequential solves. Parallelism never changes a solver's answer,
	// so cache keys ignore it.
	SolverParallelism int
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxSearchRestarts <= 0 {
		o.MaxSearchRestarts = 32
	}
	if o.MaxSearchBudget <= 0 {
		o.MaxSearchBudget = 200000
	}
	if o.TraceCapacity == 0 {
		o.TraceCapacity = 256
	}
	return o
}

// Fixed per-request limits, checked before any solver work starts.
const (
	// maxBodyBytes bounds request bodies (413 above).
	maxBodyBytes = 8 << 20
	// maxBatchJobs bounds the jobs of one /v1/batch request (400 above).
	maxBatchJobs = 256
	// maxReplications bounds the Monte-Carlo replications one
	// /v1/simulate or /v1/adapt request may ask for (400 above): the
	// batch allocates per-replication state up front, so an unbounded
	// value would let one small request exhaust memory.
	maxReplications = 1024
)

// Server is the HTTP solver service. Create with NewServer, serve it as
// an http.Handler, and Close it on shutdown to drain the worker pool.
type Server struct {
	opts     Options
	pool     *Pool
	cache    *Cache
	flights  *flightGroup
	forwards *flightGroup // collapses concurrent identical cluster forwards
	tables   *tableTier
	metrics  *Metrics
	observer obs.StageObserver // metrics.StageObserver, installed once per root
	recorder *obs.Recorder
	logger   *slog.Logger
	jobs     *jobs.Engine
	fleet    *fleet.Controller // nil when Options.DisableFleet
	mux      *http.ServeMux
	workers  int
	exec     execOpts

	// cluster is set by JoinCluster (atomically — tests join after the
	// server is already serving); nil means single-node.
	cluster atomic.Pointer[cluster.Cluster]

	shutdownOnce sync.Once
	shutdownC    chan struct{} // closed by BeginShutdown; ends SSE streams
}

// NewServer builds a ready-to-serve solver service.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	m := NewMetrics()
	s := &Server{
		opts:      opts,
		cache:     NewCache(opts.CacheSize),
		flights:   newFlightGroup(),
		forwards:  newFlightGroup(),
		metrics:   m,
		observer:  m.StageObserver(),
		logger:    opts.Logger,
		shutdownC: make(chan struct{}),
		tables:    newTableTier(m, tableBudget),
	}
	if opts.TraceCapacity > 0 {
		// A nil recorder is inert (spans no-op), so a negative capacity
		// cleanly disables tracing without touching any call site.
		s.recorder = obs.NewRecorder(opts.TraceCapacity)
		m.RegisterTraceStats(s.recorder)
	}
	s.jobs = jobs.NewEngine(jobs.Options{
		MaxJobs: opts.MaxJobs, MaxPerClient: opts.MaxJobsPerClient, TTL: opts.JobTTL,
	})
	m.RegisterCacheStats(s.cache)
	m.RegisterJobStats(s.jobs)
	s.workers = opts.Workers
	if s.workers < 1 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case opts.SolverParallelism > 0:
		s.exec.parallelism = opts.SolverParallelism
	case opts.SolverParallelism < 0:
		s.exec.parallelism = 1
	default:
		s.exec.parallelism = max(1, runtime.GOMAXPROCS(0)/s.workers)
	}
	s.exec.maxSearchRestarts = opts.MaxSearchRestarts
	s.exec.maxSearchBudget = opts.MaxSearchBudget
	s.pool = NewPool(s.workers, opts.QueueSize, m)
	if !opts.DisableFleet {
		s.fleet = fleet.New(fleet.Options{
			TickInterval:   opts.FleetTick,
			MaxDeployments: opts.MaxDeployments,
			Submitter:      &fleetSubmitter{s: s},
			OnDecision: func(id string, d fleet.Decision) {
				m.FleetDecision(d)
			},
			OnTick: func(elapsed time.Duration, deployments, decisions int) {
				m.FleetTick(elapsed.Seconds())
			},
		})
		m.RegisterFleetStats(s.fleet)
		s.fleet.Start()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.solveHandler("optimize", parseOptimize))
	mux.HandleFunc("POST /v1/evaluate", s.solveHandler("evaluate", parseEvaluate))
	mux.HandleFunc("POST /v1/minperiod", s.solveHandler("minperiod", parseMinPeriod))
	mux.HandleFunc("POST /v1/frontier", s.solveHandler("frontier", parseFrontier))
	mux.HandleFunc("POST /v1/mincost", s.solveHandler("mincost", parseMinCost))
	mux.HandleFunc("POST /v1/simulate", s.solveHandler("simulate", parseSimulate))
	mux.HandleFunc("POST /v1/adapt", s.solveHandler("adapt", parseAdapt))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	if s.fleet != nil {
		mux.HandleFunc("POST /v1/fleet/deployments", s.handleFleetRegister)
		mux.HandleFunc("GET /v1/fleet/deployments", s.handleFleetList)
		mux.HandleFunc("GET /v1/fleet/deployments/{id}", s.handleFleetStatus)
		mux.HandleFunc("DELETE /v1/fleet/deployments/{id}", s.handleFleetDeregister)
		mux.HandleFunc("POST /v1/fleet/deployments/{id}/events", s.handleFleetIngest)
		mux.HandleFunc("GET /v1/fleet/deployments/{id}/events", s.handleFleetEvents)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", m.Registry().Handler())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler: the observability middleware
// (trace + X-Trace-Id, HTTP metrics, request log — see trace.go) around
// the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.serveObserved(w, r)
}

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginShutdown signals the start of a graceful shutdown without
// waiting: SSE event streams terminate (watchers get a final status
// event), so the HTTP server's own drain isn't held open by long-lived
// watch connections. Idempotent; Close calls it implicitly.
func (s *Server) BeginShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdownC) })
}

// Close drains the service for shutdown, in dependency order: event
// streams end (BeginShutdown), the job engine stops admitting and waits
// for every in-flight job to reach a terminal state — their statuses
// stay queryable via Jobs().Snapshot — and only then the worker pool
// (which the jobs run on) drains and closes. New requests get 503.
func (s *Server) Close() {
	s.BeginShutdown()
	s.stopFleet()
	s.jobs.Close()
	s.pool.Close()
}

// stopFleet halts the fleet control loop before the job engine drains:
// a ticking controller could otherwise submit a remap into a closing
// engine. Stopped controller state stays queryable.
func (s *Server) stopFleet() {
	if s.fleet != nil {
		s.fleet.Stop()
	}
}

// CloseWithin is Close with a drain budget for the async jobs: jobs
// still live after d are cancelled (through the same context plumbing
// DELETE uses) and land as cancelled instead of pinning shutdown — so a
// supervisor's kill timeout can't outrun the terminal-status dump.
// d <= 0 behaves like Close.
func (s *Server) CloseWithin(d time.Duration) {
	s.BeginShutdown()
	s.stopFleet()
	s.jobs.CloseWithin(d)
	s.pool.Close()
}

// Jobs exposes the async job engine (for the shutdown status dump and
// tests).
func (s *Server) Jobs() *jobs.Engine { return s.jobs }

// Fleet exposes the fleet controller (nil when disabled) — tests and
// embedders drive ticks and inspect deployments through it.
func (s *Server) Fleet() *fleet.Controller { return s.fleet }

// execOpts is the execution budget handed to every solve closure: the
// solver-level parallelism one request may use inside its worker slot
// (never part of cache keys because parallelism never changes a
// solver's answer) and the per-request search caps.
type execOpts struct {
	parallelism       int
	maxSearchRestarts int
	maxSearchBudget   int
}

func (e execOpts) options() relpipe.Options {
	return relpipe.Options{Parallelism: e.parallelism}
}

// searchOptions validates a request's search knobs against the
// server's caps and folds them into the solver options. Search results
// depend on the knobs (but never on parallelism), so the cache keys
// carry them (appendSearch).
//
// The caps bound a search by iteration count, never by wall clock: a
// time cap would make the result depend on machine load, and a
// truncated answer cached under the deterministic seed-keyed entry
// would poison the cache (two replicas would serve different mappings
// for the same request forever). They bound the worst case — at the
// defaults, restarts × budget is the same order of work as a
// worst-case exact solve, the occupancy the service has always
// accepted; operators can lower -search-restarts/-search-budget.
func (e execOpts) searchOptions(sp *relpipe.SearchParams) (relpipe.Options, error) {
	o := e.options()
	if sp == nil {
		return o, nil
	}
	if sp.Restarts < 0 || sp.Budget < 0 {
		return o, fmt.Errorf("search: negative restarts or budget")
	}
	if sp.Restarts > e.maxSearchRestarts {
		return o, fmt.Errorf("search: %d restarts exceeds limit %d", sp.Restarts, e.maxSearchRestarts)
	}
	if sp.Budget > e.maxSearchBudget {
		return o, fmt.Errorf("search: budget %d exceeds limit %d", sp.Budget, e.maxSearchBudget)
	}
	o.Restarts, o.Budget, o.Seed = sp.Restarts, sp.Budget, sp.Seed
	return o, nil
}

// searchSensitive reports whether a method's answer can depend on the
// search knobs: the explicit heuristic, or auto (which may route
// there). Exact/DP/ILP answers never do, so their cache keys omit the
// knobs — identical solves with and without an (ignored) search block
// share one entry, the same reasoning that keeps parallelism out of
// every key.
func searchSensitive(m relpipe.Method) bool {
	return m == relpipe.Heuristic || m == relpipe.Auto
}

// parseSolveMethod is the shared method/search-knob handling of the
// optimize, minperiod and mincost parsers: default the method name to
// auto and validate the search knobs against the caps.
func parseSolveMethod(methodStr string, sp *relpipe.SearchParams, ex execOpts) (relpipe.Method, relpipe.Options, error) {
	if methodStr == "" {
		methodStr = "auto"
	}
	method, err := relpipe.ParseMethod(methodStr)
	if err != nil {
		return method, relpipe.Options{}, err
	}
	opts, err := ex.searchOptions(sp)
	if err != nil {
		return method, relpipe.Options{}, err
	}
	return method, opts, nil
}

// solveCtx is the per-execution environment of one solve closure: the
// cancellation context (background on the synchronous path, the job's
// context on the async path) and an optional progress hook (nil
// synchronously; the job's Control asynchronously). Neither influences
// the solver's answer, so solve closures built from the same request
// produce bit-identical bodies on both paths.
type solveCtx struct {
	ctx      context.Context
	progress progress.Func
	// tables is the table tier's heuristic-table provider (see
	// tables.go; nil for a request without a route). Like the
	// other fields it never influences an answer: provided tables are
	// bit-identical to the ones a search builds itself.
	tables func(relpipe.Instance) *relpipe.HeuristicTables
}

func (sc solveCtx) context() context.Context {
	if sc.ctx != nil {
		return sc.ctx
	}
	return context.Background()
}

// parser turns a decoded request body into a canonical cache key and a
// solve closure producing the response DTO under the given execution
// budget.
type parser func(body []byte, ex execOpts) (key string, solve solveFunc, err error)

// solveFunc produces a response DTO under a solveCtx.
type solveFunc func(sc solveCtx) (any, error)

// outcome is the materialized HTTP answer of one solve, shared verbatim
// by deduplicated and cached requests. node, when set, names the
// cluster peer that produced the body (the relpipe.NodeHeader value);
// empty means this node, filled in at write time in cluster mode.
type outcome struct {
	status int
	body   []byte
	node   string
}

// handleHealthz is pure liveness: the process is up and serving. It
// stays 200 through a graceful drain — readiness is /readyz's job —
// so an orchestrator never kills a pod for draining politely.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz is readiness: 200 while the server accepts new work,
// 503 {"status":"draining"} once BeginShutdown has started the drain —
// load balancers stop routing while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	select {
	case <-s.shutdownC:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	default:
		fmt.Fprintln(w, `{"status":"ok"}`)
	}
}

// solveHandler wraps a parser with the shared request → execute path.
// A forwarded request (another cluster node routed it here) always
// executes locally — one hop, never a loop — under the contract the
// hop's headers select: the synchronous one, or the async-job one for
// forwards that originate from a job on the entry node, where ctx (the
// hop's connection) is the cancellation bound.
func (s *Server) solveHandler(endpoint string, parse parser) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, status, err := readBody(w, r)
		if err != nil {
			s.metrics.Request(endpoint)
			s.writeError(w, status, err)
			return
		}
		req, err := s.newRequest(endpoint, parse, body)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		req.forwarded = isForwarded(r)
		if req.forwarded && r.Header.Get(relpipe.AsyncHeader) != "" {
			s.writeOutcome(w, s.executeWait(r.Context(), req, nil, nil))
			return
		}
		s.writeOutcome(w, s.execute(r.Context(), req))
	}
}

// isForwarded reports whether another cluster node routed this request
// here (relpipe.ForwardedHeader carries the sender's base URL).
func isForwarded(r *http.Request) bool {
	return r.Header.Get(relpipe.ForwardedHeader) != ""
}

// JoinCluster switches the server into cluster mode: requests whose
// instance hashes to another node are forwarded there (local solve
// fallback when that owner is unreachable), and the job engine mints
// only IDs the ring assigns to this node, so any node answers for any
// job with one Owner lookup and one hop. Responses stay byte-identical
// to single-node mode. HopTimeout defaults to the request timeout plus
// headroom so a slow-but-healthy owner is never misread as dead. Call
// after NewServer, before or while serving; jobs admitted before the
// join stay visible only on this node, which is why cmd/serve joins
// before it starts serving.
func (s *Server) JoinCluster(cfg cluster.Config) error {
	if cfg.HopTimeout <= 0 {
		cfg.HopTimeout = s.opts.RequestTimeout + 5*time.Second
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	s.metrics.RegisterClusterStats(cl)
	s.jobs.SetNode(cl.Self(), func(id string) bool { return cl.Owner(id) == cl.Self() })
	s.cluster.Store(cl)
	return nil
}

// Cluster exposes the cluster membership (nil on single-node servers)
// for tests and embedders.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster.Load() }

// solveToBytes executes one solve closure under sc, marshals the
// response DTO and caches the bytes. It is the single execution path
// shared by the synchronous endpoints and the async jobs engine, which
// is what makes an async result bit-identical to the synchronous one
// for the same request: same closure, same marshaling, same cache
// entry. A failed (or cancelled) solve caches nothing.
func (s *Server) solveToBytes(key string, solve solveFunc, sc solveCtx) ([]byte, error) {
	s.metrics.Solve()
	spanCtx, sp := obs.StartSpan(sc.context(), "solve")
	sc.ctx = spanCtx // solver stages nest under the solve span
	v, err := solve(sc)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.End()
	t0 := time.Now()
	b, err := json.Marshal(v)
	obs.RecordSpan(sc.ctx, "marshal", t0, time.Now(), nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errEncodeResponse, err)
	}
	s.cache.Put(key, b)
	return b, nil
}

// handleBatch fans the jobs across the worker pool (bounded by the pool
// itself plus a per-batch fan-out cap) and answers with one result per
// job in request order. Jobs shed with 429 can be retried individually.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("batch")
	body, status, err := readBody(w, r)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	batch, err := s.parseBatch(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	results := s.runBatchItems(batch.Jobs, func(req Request) outcome {
		return s.execute(ctx, req)
	}, nil)
	s.writeJSON(w, http.StatusOK, relpipe.BatchResponse{Results: results})
}

// parseBatch decodes a /v1/batch document strictly and checks its item
// count; the synchronous endpoint and batch-kind jobs share it.
func (s *Server) parseBatch(body []byte) (relpipe.BatchRequest, error) {
	var batch relpipe.BatchRequest
	if err := jsonscan.Strict(body, &batch); err != nil {
		return batch, err
	}
	if len(batch.Jobs) == 0 {
		return batch, errors.New("batch: no jobs")
	}
	if len(batch.Jobs) > maxBatchJobs {
		return batch, fmt.Errorf("batch: %d jobs exceeds limit %d", len(batch.Jobs), maxBatchJobs)
	}
	return batch, nil
}

// runBatchItems is the batch fan-out shared by the synchronous endpoint
// and batch-kind async jobs: items run concurrently under the shared
// per-batch semaphore, each built by newRequest and executed through
// the caller-supplied contract, and results land in request order. An
// item of unknown kind or with a malformed document answers 400.
// progress (when non-nil) receives the completed-item count.
func (s *Server) runBatchItems(items []relpipe.BatchJob, run func(Request) outcome, progress func(done int64)) []relpipe.BatchJobResult {
	results := make([]relpipe.BatchJobResult, len(items))
	var done atomic.Int64
	sem := make(chan struct{}, max(1, s.workers))
	var wg sync.WaitGroup
	for i, job := range items {
		wg.Add(1)
		go func(i int, job relpipe.BatchJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var out outcome
			if parse, ok := batchParsers[job.Kind]; !ok {
				out = errorOutcome(http.StatusBadRequest, fmt.Errorf("batch: unknown kind %q", job.Kind))
			} else if req, err := s.newRequest(job.Kind, parse, job.Request); err != nil {
				out = errorOutcome(http.StatusBadRequest, err)
			} else {
				out = run(req)
			}
			results[i] = relpipe.BatchJobResult{Status: out.status, Body: out.body}
			if progress != nil {
				progress(done.Add(1))
			}
		}(i, job)
	}
	wg.Wait()
	return results
}

// batchParsers dispatches batch job kinds to the endpoint parsers.
var batchParsers = map[string]parser{
	"optimize":  parseOptimize,
	"evaluate":  parseEvaluate,
	"minperiod": parseMinPeriod,
	"frontier":  parseFrontier,
	"mincost":   parseMinCost,
	"simulate":  parseSimulate,
	"adapt":     parseAdapt,
}

// ---- endpoint parsers ----

// withCtx fills the execution-time fields of a solver Options value
// from the solveCtx: cancellation and the progress hook. Neither enters
// a cache key (they never change an answer).
func withCtx(opts relpipe.Options, sc solveCtx) relpipe.Options {
	opts.Context = sc.context()
	opts.Progress = sc.progress
	opts.Tables = sc.tables
	return opts
}

func parseOptimize(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.OptimizeRequest
	if err := decode(body, &req, scanOptimize); err != nil {
		return "", nil, err
	}
	method, opts, err := parseSolveMethod(req.Method, req.Search, ex)
	if err != nil {
		return "", nil, err
	}
	return optimizeKey(&req, method), func(sc solveCtx) (any, error) {
		sol, err := relpipe.OptimizeWith(req.Instance, req.Bounds, method, withCtx(opts, sc))
		if err != nil {
			return nil, err
		}
		return relpipe.OptimizeResponse{Solution: sol}, nil
	}, nil
}

func parseEvaluate(body []byte, _ execOpts) (string, solveFunc, error) {
	var req relpipe.EvaluateRequest
	if err := decode(body, &req, scanEvaluate); err != nil {
		return "", nil, err
	}
	return evaluateKey(&req), func(solveCtx) (any, error) {
		ev, err := relpipe.Evaluate(req.Instance, req.Mapping)
		if err != nil {
			return nil, err
		}
		return relpipe.EvaluateResponse{Eval: ev}, nil
	}, nil
}

func parseMinPeriod(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.MinPeriodRequest
	if err := decode(body, &req, scanMinPeriod); err != nil {
		return "", nil, err
	}
	method, opts, err := parseSolveMethod(req.Method, req.Search, ex)
	if err != nil {
		return "", nil, err
	}
	return minPeriodKey(&req, method), func(sc solveCtx) (any, error) {
		sol, err := relpipe.MinPeriodMethod(req.Instance, req.MinReliability, method, withCtx(opts, sc))
		if err != nil {
			return nil, err
		}
		return relpipe.OptimizeResponse{Solution: sol}, nil
	}, nil
}

func parseFrontier(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.FrontierRequest
	if err := decode(body, &req, scanFrontier); err != nil {
		return "", nil, err
	}
	return frontierKey(&req), func(sc solveCtx) (any, error) {
		pts, err := relpipe.FrontierWith(req.Instance, withCtx(ex.options(), sc))
		if err != nil {
			return nil, err
		}
		return relpipe.FrontierResponse{Points: pts}, nil
	}, nil
}

func parseMinCost(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.MinCostRequest
	if err := decode(body, &req, scanMinCost); err != nil {
		return "", nil, err
	}
	method, opts, err := parseSolveMethod(req.Method, req.Search, ex)
	if err != nil {
		return "", nil, err
	}
	return minCostKey(&req, method), func(sc solveCtx) (any, error) {
		sol, err := relpipe.MinimizeCostWith(req.Instance, req.Costs, req.MinReliability, req.Bounds, method, withCtx(opts, sc))
		if err != nil {
			return nil, err
		}
		return relpipe.MinCostResponse{Solution: sol}, nil
	}, nil
}

func parseSimulate(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.SimulateRequest
	if err := decode(body, &req, scanSimulate); err != nil {
		return "", nil, err
	}
	var routing sim.RoutingMode
	switch req.Routing {
	case "", "one-hop":
		routing = sim.OneHop
	case "two-hop":
		routing = sim.TwoHop
	default:
		return "", nil, fmt.Errorf("simulate: unknown routing %q (want one-hop or two-hop)", req.Routing)
	}
	if req.Replications < 0 {
		return "", nil, fmt.Errorf("simulate: negative replications %d", req.Replications)
	}
	if req.Replications > maxReplications {
		return "", nil, fmt.Errorf("simulate: %d replications exceeds limit %d", req.Replications, maxReplications)
	}
	reps := req.Replications
	if reps == 0 {
		reps = 1
	}
	if req.Seed == 0 {
		// Seed 0 aliases the default seed 1 (the repo-wide convention,
		// matching cmd/simulate and sim.RunBatch); normalizing before
		// the key also makes the two spellings share one cache entry.
		req.Seed = 1
	}
	key := simulateKey(&req, routing, reps)
	cfg := relpipe.SimConfig{
		Chain:          req.Instance.Chain,
		Platform:       req.Instance.Platform,
		Mapping:        req.Mapping,
		Period:         req.Period,
		DataSets:       req.DataSets,
		Seed:           req.Seed,
		InjectFailures: req.InjectFailures,
		Routing:        routing,
		WarmUp:         req.WarmUp,
	}
	return key, func(sc solveCtx) (any, error) {
		if reps > 1 {
			batch, err := relpipe.SimulateBatch(cfg, reps, withCtx(ex.options(), sc))
			if err != nil {
				return nil, err
			}
			return simulateResponse(batch.DataSets(), batch.Successes(),
				batch.SuccessRate(), batch.MeanLatency(), batch.MaxLatency(), batch.MeanSteadyPeriod()), nil
		}
		res, err := relpipe.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		return simulateResponse(res.DataSets, res.Successes,
			res.SuccessRate(), res.MeanLatency(), res.MaxLatency(), res.SteadyPeriod), nil
	}, nil
}

// parseAdapt handles the online-adaptation endpoint. Replications are
// capped like /v1/simulate's (each replication may run many remap
// searches, so an unbounded value would monopolize a worker); the remap
// search knobs are capped like every search-sensitive endpoint's and
// enter the cache key only when the policy actually searches (remap),
// mirroring how exact methods omit them.
func parseAdapt(body []byte, ex execOpts) (string, solveFunc, error) {
	var req relpipe.AdaptRequest
	if err := decode(body, &req, scanAdapt); err != nil {
		return "", nil, err
	}
	policyStr := req.Policy
	if policyStr == "" {
		policyStr = "remap"
	}
	policy, err := relpipe.ParseAdaptPolicy(policyStr)
	if err != nil {
		return "", nil, err
	}
	if req.Replications < 0 {
		return "", nil, fmt.Errorf("adapt: negative replications %d", req.Replications)
	}
	if req.Replications > maxReplications {
		return "", nil, fmt.Errorf("adapt: %d replications exceeds limit %d", req.Replications, maxReplications)
	}
	reps := req.Replications
	if reps == 0 {
		reps = 1
	}
	if req.Seed == 0 {
		// Seed 0 aliases the default seed 1 (the repo-wide convention);
		// normalized before the key so both spellings share one entry.
		req.Seed = 1
	}
	opts, err := ex.searchOptions(req.Search)
	if err != nil {
		return "", nil, err
	}
	return adaptKey(&req, policy, reps), func(sc solveCtx) (any, error) {
		opts := withCtx(opts, sc)
		m := relpipe.Mapping{}
		if req.Mapping != nil {
			m = *req.Mapping
		} else {
			// The server-side initial optimize is cancellable but reports
			// no progress: mixing its restart counts with the batch's
			// replication counts would interleave two different units.
			noProg := opts
			noProg.Progress = nil
			sol, err := relpipe.OptimizeWith(req.Instance, req.Bounds, relpipe.Auto, noProg)
			if err != nil {
				return nil, err
			}
			m = sol.Mapping
		}
		batch, err := relpipe.AdaptBatch(req.Instance, m, relpipe.AdaptOptions{
			Policy:        policy,
			Horizon:       req.Horizon,
			Period:        req.Bounds.Period,
			Latency:       req.Bounds.Latency,
			LifeScale:     req.LifeScale,
			Spares:        req.Spares,
			SpareCost:     req.SpareCost,
			Costs:         req.Costs,
			RepairLatency: req.RepairLatency,
			Seed:          req.Seed,
			Restarts:      opts.Restarts,
			Budget:        opts.Budget,
		}, reps, opts)
		if err != nil {
			return nil, err
		}
		return relpipe.AdaptResponse{Policy: policy.String(), Summary: batch.Summarize()}, nil
	}, nil
}

// simulateResponse builds the wire aggregate shared by the single-run
// and batched simulate paths. The simulator reports undefined aggregates
// as NaN (no successful data set, or too few post-warm-up completions
// for SteadyPeriod), which json.Marshal rejects; the wire format uses 0
// for "undefined" (Successes / DataSets disambiguate).
func simulateResponse(dataSets, successes int, successRate, meanLatency, maxLatency, steadyPeriod float64) relpipe.SimulateResponse {
	return relpipe.SimulateResponse{
		DataSets:     dataSets,
		Successes:    successes,
		SuccessRate:  finiteOrZero(successRate),
		MeanLatency:  finiteOrZero(meanLatency),
		MaxLatency:   finiteOrZero(maxLatency),
		SteadyPeriod: finiteOrZero(steadyPeriod),
	}
}

// finiteOrZero maps NaN/±Inf to 0 so responses stay marshalable.
func finiteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// ---- shared plumbing ----

// readBody reads a bounded request body. On failure the returned status
// is 413 for a body over the limit and 400 for anything else (e.g. a
// truncated upload). The buffer is presized from the declared
// Content-Length — clamped to the limit and to readPresize, so a lying
// header cannot reserve more — with one spare byte to read EOF into
// without growing; a chunked body starts from io.ReadAll's 512 bytes.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, status int, err error) {
	defer r.Body.Close()
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyBytes, readPresize) + 1
	}
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := make([]byte, 0, size)
	for {
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, http.StatusOK, nil
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
			}
			return nil, http.StatusBadRequest, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// readPresize caps the buffer readBody reserves up front.
const readPresize = 64 << 10

// errEncodeResponse marks a response DTO that json.Marshal rejected.
var errEncodeResponse = errors.New("service: encode response")

// statusFor maps solver and infrastructure errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, relpipe.ErrInfeasible), errors.Is(err, cost.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, new(*json.UnsupportedValueError)):
		// A finite request whose answer overflows to ±Inf or NaN,
		// which JSON cannot carry: the request is at fault, not the
		// server.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrSolvePanic), errors.Is(err, errEncodeResponse):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func errorOutcome(status int, err error) outcome {
	b, _ := json.Marshal(relpipe.ErrorResponse{Error: err.Error()})
	return outcome{status: status, body: b}
}

// retryAfterSeconds estimates when a 429'd client should come back:
// roughly one queue's worth of work — pending solves over the worker
// count, scaled by the mean observed solve latency — clamped to
// [1s, 60s]. Every 429 the service emits (queue full, job caps) carries
// this header; a fixed "1" would stampede a loaded pool with retries
// exactly when it cannot absorb them.
func (s *Server) retryAfterSeconds() int {
	mean := s.metrics.MeanSolveSeconds()
	if mean <= 0 {
		return 1
	}
	backlog := float64(s.metrics.QueueDepth()+1) / float64(s.workers)
	secs := int(math.Ceil(backlog * mean))
	return min(max(secs, 1), 60)
}

func (s *Server) writeOutcome(w http.ResponseWriter, out outcome) {
	w.Header().Set("Content-Type", "application/json")
	if out.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	// In cluster mode every answer names the node that produced
	// it — the owner for routed requests, this node for local work and
	// fallbacks. The e2e suite asserts stable ownership through it.
	if node := out.node; node != "" {
		w.Header().Set(relpipe.NodeHeader, node)
	} else if cl := s.Cluster(); cl != nil {
		w.Header().Set(relpipe.NodeHeader, cl.Self())
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeOutcome(w, errorOutcome(status, err))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeOutcome(w, outcome{status: status, body: b})
}

// openSSE starts a Server-Sent Events answer: event-stream headers and
// a 200. It returns nil, after answering 500, when w cannot stream;
// area prefixes that error.
func (s *Server) openSSE(w http.ResponseWriter, area string) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("%s: response writer cannot stream", area))
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	return fl
}

// writeSSE emits one Server-Sent Event with a JSON payload and flushes
// it.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	fl.Flush()
}
