// Command serve runs the concurrent solver service: an HTTP JSON API
// exposing optimize, evaluate, min-period, frontier, min-cost, simulate,
// adapt, batch and async job endpoints over a bounded worker pool with a
// result cache and in-flight deduplication (see internal/service and
// API.md).
//
// Usage:
//
//	serve [-addr :8080] [-workers 0] [-queue 0] [-cache 1024] [-timeout 30s] [-grace 10s]
//	      [-solver-parallel 0] [-search-restarts 32] [-search-budget 200000]
//	      [-jobs 1024] [-jobs-per-client 16] [-jobs-ttl 10m] [-jobs-dump path]
//	      [-fleet=true] [-fleet-tick 1s] [-fleet-deployments 1024]
//	      [-traces 256] [-log-format text|json] [-pprof]
//	      [-peers url,url,... -self url] [-peer-timeout 0]
//
// Cluster mode: -peers lists every cluster member's base URL (self
// included, the same list on every node) and -self names this node's
// own entry. Each request routes to the consistent-hash owner of its
// instance; an unreachable owner degrades to a local solve. Responses
// are byte-identical to single-node mode. -peer-timeout bounds one
// synchronous forward hop (0 derives it from -timeout plus headroom).
// See DESIGN.md "Cluster mode" and the README 3-node quick-start.
//
// Fleet: -fleet-tick and -fleet-deployments size the fleet controller;
// a deployment's guard rails (cooldown, breaker window, remap cap) are
// set only in its own register request, and its remaps run as jobs of
// client "fleet".
//
// Observability: every /v1 response carries an X-Trace-Id header and the
// recorder keeps the -traces most recent request traces queryable at
// GET /debug/traces. Metrics are served in Prometheus text format at
// GET /metrics. Each request is logged as one structured line — text
// (default) or JSON via -log-format — carrying the trace ID. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ (off by default; the profiling surface is private until
// an operator opts in).
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, SSE job watchers receive a final shutdown event, in-flight
// requests get up to the shutdown grace period to finish, in-flight
// async jobs get their own grace window to drain to a terminal status
// (stragglers are cancelled rather than pinning the process into a
// supervisor kill; with -jobs-dump the terminal statuses are persisted
// as a JSON document before exit), and the worker pool drains.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relpipe"
	"relpipe/internal/cluster"
	"relpipe/internal/service"
)

func main() {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "pending-solve queue size (0 = 4x workers)")
	cacheSize := fs.Int("cache", 1024, "result cache entries (negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request solve timeout (sync endpoints)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period")
	solverParallel := fs.Int("solver-parallel", 0,
		"per-request solver parallelism (0 = GOMAXPROCS/workers, negative = sequential)")
	searchRestarts := fs.Int("search-restarts", 0,
		"cap on heuristic-search restarts per request (0 = default 32)")
	searchBudget := fs.Int("search-budget", 0,
		"cap on heuristic-search iterations per restart per request (0 = default 200000)")
	maxJobs := fs.Int("jobs", 0, "async job store size, all states (0 = default 1024)")
	jobsPerClient := fs.Int("jobs-per-client", 0, "live async jobs per client (0 = default 16)")
	jobsTTL := fs.Duration("jobs-ttl", 0, "terminal async jobs stay queryable this long (0 = default 10m)")
	jobsDump := fs.String("jobs-dump", "", "write terminal job statuses to this file on shutdown")
	fleetOn := fs.Bool("fleet", true, "enable the fleet controller and its /v1/fleet routes")
	fleetTick := fs.Duration("fleet-tick", 0, "fleet control-loop period (0 = default 1s)")
	fleetMax := fs.Int("fleet-deployments", 0, "fleet deployment cap (0 = default 1024)")
	traces := fs.Int("traces", 0,
		"in-memory trace recorder capacity for /debug/traces (0 = default 256, negative disables)")
	logFormat := fs.String("log-format", "text", "request log format: text or json")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	peers := fs.String("peers", "", "comma-separated base URLs of every cluster member, self included (empty = single-node)")
	self := fs.String("self", "", "this node's base URL, one of -peers (required with -peers)")
	peerTimeout := fs.Duration("peer-timeout", 0, "per-hop bound for forwarding a request to its owner node (0 = -timeout plus headroom)")
	fs.Parse(os.Args[1:])

	reqLogger, err := newRequestLogger(os.Stderr, *logFormat)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	clusterCfg, err := clusterConfig(*peers, *self, *peerTimeout)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if err := run(ctx, ln, service.Options{
		Workers:           *workers,
		QueueSize:         *queue,
		CacheSize:         *cacheSize,
		RequestTimeout:    *timeout,
		SolverParallelism: *solverParallel,
		MaxSearchRestarts: *searchRestarts,
		MaxSearchBudget:   *searchBudget,
		MaxJobs:           *maxJobs,
		MaxJobsPerClient:  *jobsPerClient,
		JobTTL:            *jobsTTL,
		DisableFleet:      !*fleetOn,
		FleetTick:         *fleetTick,
		MaxDeployments:    *fleetMax,
		TraceCapacity:     *traces,
		EnablePprof:       *pprofOn,
		Logger:            reqLogger,
	}, clusterCfg, *grace, *jobsDump, log.Default()); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// clusterConfig validates the cluster flag triple. An empty -peers
// keeps the server single-node (nil config).
func clusterConfig(peers, self string, hop time.Duration) (*cluster.Config, error) {
	if peers == "" {
		if self != "" {
			return nil, errors.New("-self requires -peers")
		}
		return nil, nil
	}
	if self == "" {
		return nil, errors.New("-peers requires -self")
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	return &cluster.Config{Self: self, Peers: list, HopTimeout: hop}, nil
}

// newRequestLogger builds the structured per-request logger handed to the
// service (slog, one line per HTTP request with the trace ID). format is
// "text" or "json".
func newRequestLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// run serves the solver service on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, end SSE job watches, give in-flight
// requests the grace period, drain the async jobs to terminal statuses
// (dumping them to jobsDump when set), drain the worker pool. A non-nil
// clusterCfg joins the node to its cluster before serving.
func run(ctx context.Context, ln net.Listener, opts service.Options, clusterCfg *cluster.Config, grace time.Duration, jobsDump string, logger *log.Logger) error {
	svc := service.NewServer(opts)
	if clusterCfg != nil {
		if err := svc.JoinCluster(*clusterCfg); err != nil {
			svc.Close()
			return err
		}
		cl := svc.Cluster()
		logger.Printf("cluster mode: self=%s peers=%v", cl.Self(), cl.Peers())
	}
	httpSrv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("solver service listening on %s", ln.Addr())

	select {
	case err := <-errc:
		svc.Close()
		return fmt.Errorf("listener failed: %w", err)
	case <-ctx.Done():
	}

	logger.Printf("shutting down (grace %v)", grace)
	// Ending the SSE event streams first keeps long-lived watch
	// connections from pinning Shutdown to the full grace period.
	svc.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	// Drain in-flight jobs to a terminal status before the pool goes
	// down, so the dump below never records a live state. Jobs get
	// their own grace window (total shutdown ≤ ~2×grace); stragglers
	// are cancelled rather than allowed to pin the process into a
	// supervisor SIGKILL that would lose the dump.
	svc.CloseWithin(grace)
	if jobsDump != "" {
		if derr := dumpJobs(svc, jobsDump); derr != nil {
			logger.Printf("jobs dump failed: %v", derr)
			if err == nil {
				err = derr
			}
		} else {
			logger.Printf("terminal job statuses written to %s", jobsDump)
		}
	}
	if srvErr := <-errc; srvErr != nil && !errors.Is(srvErr, http.ErrServerClosed) {
		return srvErr
	}
	logger.Printf("shutdown complete")
	return err
}

// dumpJobs persists every stored job's terminal status as a JSON
// document ({"jobs": [...]}, newest first — the /v1/jobs list shape),
// so operators can audit what a drained instance finished.
func dumpJobs(svc *service.Server, path string) error {
	// relpipe.JobStatus aliases the engine's Status, so the snapshot is
	// already the wire type.
	b, err := json.MarshalIndent(relpipe.JobListResponse{Jobs: svc.Jobs().Snapshot("")}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
