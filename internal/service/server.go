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
	// knobs of every search one request starts (defaults 32 restarts,
	// 200000 iterations per restart); like maxReplications they keep a
	// single request from monopolizing a worker slot. Requests asking
	// for more get 400; a knob left to its engine default runs at the
	// cap where the default exceeds it.
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
	// recording — spans become no-ops and no trace ID is minted, so
	// responses carry no X-Trace-Id and jobs no traceId).
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
	// maxSimDataSets bounds replications × dataSets of one /v1/simulate
	// request (400 above): a simulated data set holds about 90 bytes of
	// engine state and latency record per replication until the run
	// ends, so the bound keeps one request near 100 MB.
	maxSimDataSets = 1 << 20
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
	for name, k := range kinds {
		mux.HandleFunc("POST /v1/"+name, s.solveHandler(name, k.parse))
	}
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
func (s *Server) Close() { s.CloseWithin(0) }

// CloseWithin is Close with a drain budget for the async jobs: jobs
// still live after d are cancelled (through the same context plumbing
// DELETE uses) and land as cancelled instead of pinning shutdown — so a
// supervisor's kill timeout can't outrun the terminal-status dump.
// d <= 0 behaves like Close. The fleet control loop halts before the
// job engine drains: a ticking controller could otherwise submit a
// remap into a closing engine. Stopped controller state stays
// queryable.
func (s *Server) CloseWithin(d time.Duration) {
	s.BeginShutdown()
	if s.fleet != nil {
		s.fleet.Stop()
	}
	s.jobs.CloseWithin(d)
	s.pool.Close()
}

// Jobs exposes the async job engine (for the shutdown status dump and
// tests).
func (s *Server) Jobs() *jobs.Engine { return s.jobs }

// Fleet exposes the fleet controller (nil when disabled) — tests and
// embedders drive ticks and inspect deployments through it.
func (s *Server) Fleet() *fleet.Controller { return s.fleet }

// execOpts is the server's execution budget: the solver-level
// parallelism one request may use inside its worker slot, which the
// executor sets on every solve (never part of cache keys because
// parallelism never changes a solver's answer), and the per-request
// search caps the parsers check.
type execOpts struct {
	parallelism       int
	maxSearchRestarts int
	maxSearchBudget   int
}

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

// solveToBytes executes req's solve closure, marshals the response DTO
// and caches the bytes. It is the single execution path shared by the
// synchronous endpoints and the async jobs engine, which is what makes
// an async result bit-identical to the synchronous one for the same
// request: same closure, same marshaling, same cache entry. It fills
// the execution half of the closure's relpipe.Options: the server's
// parallelism, ctx (background on the synchronous path, the job's
// context on the async one), report (nil synchronously) and the table
// tier's provider for req's route; none of them changes an answer. A
// failed (or cancelled) solve caches nothing.
func (s *Server) solveToBytes(ctx context.Context, req Request, report progress.Func) ([]byte, error) {
	defer s.tables.settle(req.Route)
	s.metrics.Solve()
	ctx, sp := obs.StartSpan(ctx, "solve") // solver stages nest under the solve span
	v, err := req.solve(relpipe.Options{
		Parallelism: s.exec.parallelism,
		Context:     ctx,
		Progress:    report,
		Tables:      s.tables.provider(req.Route),
	})
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.End()
	t0 := time.Now()
	b, err := json.Marshal(v)
	obs.RecordSpan(ctx, "marshal", t0, time.Now(), nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errEncodeResponse, err)
	}
	s.cache.Put(req.Key, b)
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
			if k, ok := kinds[job.Kind]; !ok {
				out = errorOutcome(http.StatusBadRequest, fmt.Errorf("batch: unknown kind %q", job.Kind))
			} else if req, err := s.newRequest(job.Kind, k.parse, job.Request); err != nil {
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

// statusFor maps solver, infrastructure, job-engine and fleet errors to
// HTTP statuses. Capacity errors are backpressure (429 + Retry-After),
// and a job aborted through DELETE records 499 (the de-facto "client
// closed request" status) as its would-have-been HTTP status; the job
// state is what reports the cancellation.
func statusFor(err error) int {
	switch {
	case errors.Is(err, relpipe.ErrInfeasible), errors.Is(err, cost.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull), errors.Is(err, jobs.ErrStoreFull), errors.Is(err, jobs.ErrClientCap),
		errors.Is(err, fleet.ErrFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed), errors.Is(err, jobs.ErrClosed), errors.Is(err, fleet.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, fleet.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, fleet.ErrExists):
		return http.StatusConflict
	case errors.As(err, new(*json.UnsupportedValueError)):
		// A finite request whose answer overflows to ±Inf or NaN,
		// which JSON cannot carry: the request is at fault, not the
		// server.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrSolvePanic), errors.Is(err, errEncodeResponse):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
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
