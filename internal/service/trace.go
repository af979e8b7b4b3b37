package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"relpipe"
	"relpipe/internal/obs"
)

// This file is the observability middleware of the server: every
// request flows through serveObserved, which installs the stage
// observer and opens the request's trace (solver endpoints only),
// issues the X-Trace-Id header, records the per-endpoint HTTP metrics,
// and emits one structured log line. The recorded traces are served
// back at GET /debug/traces.

// serveObserved wraps the route mux with tracing, metrics and logging.
func (s *Server) serveObserved(w http.ResponseWriter, r *http.Request) {
	endpoint := endpointLabel(r.URL.Path)
	start := time.Now()

	// Solver endpoints get the request's observation scope: the stage
	// observer and a trace. The monitoring surface itself (/metrics,
	// /healthz, /debug) would only pollute the recorder.
	var root *obs.SpanHandle
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		ctx, h := s.recorder.StartTrace(obs.WithStageObserver(r.Context(), s.observer), r.Method+" "+endpoint)
		root = h
		if id := obs.TraceIDFrom(ctx); id != "" {
			w.Header().Set(relpipe.TraceHeader, id)
		}
		r = r.WithContext(ctx)
	}

	sr := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(sr, r)

	code := sr.code()
	elapsed := time.Since(start)
	s.metrics.HTTPRequest(endpoint, code, elapsed.Seconds())
	if root != nil {
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		root.SetAttr("status", strconv.Itoa(code))
		root.End()
	}
	if s.logger != nil {
		s.logger.Info("request",
			"method", r.Method,
			"endpoint", endpoint,
			"path", r.URL.Path,
			"status", code,
			"durationMs", float64(elapsed.Microseconds())/1000,
			"traceId", obs.TraceIDFrom(r.Context()),
		)
	}
}

// endpointLabel buckets a request path into a bounded label set: the
// fixed routes keep their path, job-instance routes collapse onto
// /v1/jobs (IDs must not become label values), everything else is
// "other" so arbitrary probes cannot grow the metric families.
func endpointLabel(path string) string {
	if strings.HasPrefix(path, "/v1/jobs") {
		return "/v1/jobs"
	}
	if strings.HasPrefix(path, "/v1/fleet") {
		return "/v1/fleet"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	switch path {
	case "/v1/batch", "/healthz", "/readyz", "/metrics", "/debug/traces":
		return path
	}
	if name, ok := strings.CutPrefix(path, "/v1/"); ok {
		if _, ok := kinds[name]; ok {
			return path
		}
	}
	return "other"
}

// statusRecorder captures the response status for metrics and logging.
// It forwards Flush so the SSE event stream keeps working through the
// middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// code returns the recorded status (200 when the handler never wrote).
func (sr *statusRecorder) code() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

var errTraceNotFound = errors.New("traces: no such trace")

// tracesResponse is the GET /debug/traces document.
type tracesResponse struct {
	Traces []obs.Trace `json:"traces"`
}

// handleTraces serves the recorded traces, newest first
// ("GET /debug/traces"); ?id= selects one trace by X-Trace-Id value.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := s.recorder.Find(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, errTraceNotFound)
			return
		}
		json.NewEncoder(w).Encode(tracesResponse{Traces: []obs.Trace{t}})
		return
	}
	traces := s.recorder.Traces()
	if traces == nil {
		traces = []obs.Trace{}
	}
	json.NewEncoder(w).Encode(tracesResponse{Traces: traces})
}
