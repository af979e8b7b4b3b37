package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"relpipe"
	"relpipe/internal/obs"
	"relpipe/internal/service"
)

// span is one timed call recorded by the replay: a layer's public
// function called for one request. Times are microseconds from the
// start of the replay. Parent is 0 for a request's root span; solver
// stage spans have the solve span as parent, every other span the root.
type span struct {
	Workload string  `json:"workload"`
	Request  int     `json:"request"`
	Kind     string  `json:"kind"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"startUs"`
	EndUs    float64 `json:"endUs"`
	Units    int64   `json:"units,omitempty"`
}

func (s span) us() float64 { return s.EndUs - s.StartUs }

// Replay span names. Each wraps the public entry point of one layer.
const (
	spanRequest   = "request"
	spanDecode    = "relpipe.decode"  // strict encoding/json decode into the api.go type
	spanCanonical = "core.canonical"  // Instance.Canonical, the cache and routing key
	spanServe     = "service.serve"   // service.Server.ServeHTTP in-process
	spanTables    = "heur.tables"     // relpipe.BuildHeuristicTables
	spanSolve     = "relpipe.solve"   // the facade solve; solver stage events nest under it
	spanMarshal   = "relpipe.marshal" // json.Marshal of the response
)

// replayer records the spans of one workload's replay.
type replayer struct {
	workload string
	t0       time.Time
	spans    []span
}

func (r *replayer) us(t time.Time) float64 { return float64(t.Sub(r.t0)) / 1e3 }

func (r *replayer) add(s span, start, end time.Time) int {
	s.Workload, s.ID = r.workload, len(r.spans)+1
	s.StartUs, s.EndUs = r.us(start), r.us(end)
	r.spans = append(r.spans, s)
	return s.ID
}

// replay calls each layer of the request path in turn, one request at
// a time, recording a span around each call. The solve runs with a
// stage observer, so the solvers' own stage events (search.seed,
// sim.batch, solve.exact, ...) become child spans of the solve span.
// service.serve runs the whole request through an in-process server
// that is first sent the workload's setup documents, untimed, so its
// cache holds what the measured servers' caches hold and repeated keys
// hit there as they do on the wire.
func replay(name string, setup, reqs []request) ([]span, error) {
	srv := service.NewServer(service.Options{TraceCapacity: -1})
	defer srv.Close()
	for i, q := range setup {
		if err := serve(srv, q); err != nil {
			return nil, fmt.Errorf("replay setup request %d (%s): %w", i, q.kind, err)
		}
	}
	r := &replayer{workload: name, t0: time.Now()}
	for i, q := range reqs {
		root := r.add(span{Request: i, Kind: q.kind, Name: spanRequest}, time.Now(), time.Now())
		timed := func(name string, fn func() error) error {
			t0 := time.Now()
			err := fn()
			r.add(span{Request: i, Kind: q.kind, Parent: root, Name: name}, t0, time.Now())
			if err != nil {
				return fmt.Errorf("replay request %d (%s): %s: %w", i, q.kind, name, err)
			}
			return nil
		}
		var d decoded
		if err := timed(spanDecode, func() (err error) { d, err = decode(q.kind, q.body); return err }); err != nil {
			return nil, err
		}
		if err := timed(spanCanonical, func() error { _ = d.instance.Canonical(); return nil }); err != nil {
			return nil, err
		}
		if err := timed(spanServe, func() error { return serve(srv, q) }); err != nil {
			return nil, err
		}
		if d.heuristic {
			if err := timed(spanTables, func() error { _ = relpipe.BuildHeuristicTables(d.instance); return nil }); err != nil {
				return nil, err
			}
		}
		var mu sync.Mutex
		var stages []obs.StageEvent
		ctx := obs.WithStageObserver(context.Background(), func(e obs.StageEvent) {
			mu.Lock()
			stages = append(stages, e)
			mu.Unlock()
		})
		t0 := time.Now()
		v, err := d.call(ctx)
		solveEnd := time.Now()
		solve := r.add(span{Request: i, Kind: q.kind, Parent: root, Name: spanSolve}, t0, solveEnd)
		if err != nil {
			return nil, fmt.Errorf("replay request %d (%s): solve: %w", i, q.kind, err)
		}
		for _, e := range stages {
			// A stage reports its duration as it ends, and the observer
			// runs synchronously then; the solve span's end is the
			// closest bound the benchmark can see from outside.
			r.add(span{Request: i, Kind: q.kind, Parent: solve, Name: e.Name, Units: e.Units},
				solveEnd.Add(-e.Duration), solveEnd)
		}
		if err := timed(spanMarshal, func() (err error) { _, err = json.Marshal(v); return err }); err != nil {
			return nil, err
		}
		r.spans[root-1].EndUs = r.us(time.Now())
	}
	return r.spans, nil
}

// serve sends one request through an in-process server and fails on any
// status but 200.
func serve(srv *service.Server, q request) error {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+q.kind, bytes.NewReader(q.body)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.Code, truncate(w.Body.Bytes()))
	}
	return nil
}

// replayLayers reduces replay spans to the per-layer metrics they feed.
func replayLayers(spans []span, m metrics) {
	byName := map[string][]float64{}
	units := map[string]int64{}
	total := map[string]float64{}
	var frontier []float64
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.us())
		units[s.Name] += s.Units
		total[s.Name] += s.us()
		// The frontier sweep emits no stage event of its own; its facade
		// call is the layer.
		if s.Name == spanSolve && s.Kind == "frontier" {
			frontier = append(frontier, s.us())
		}
	}
	p50 := func(name string) float64 { return percentile(byName[name], 50) }
	perMs := func(name string) float64 {
		if total[name] == 0 {
			return 0
		}
		return float64(units[name]) / (total[name] / 1e3)
	}
	shareOfSolve := func(names ...string) float64 {
		if total[spanSolve] == 0 {
			return 0
		}
		s := 0.0
		for _, n := range names {
			s += total[n]
		}
		return s / total[spanSolve]
	}
	m.set("relpipe.decode_us", p50(spanDecode), "us")
	m.set("core.canonical_us", p50(spanCanonical), "us")
	m.set("service.serve_us", p50(spanServe), "us")
	m.set("relpipe.marshal_us", p50(spanMarshal), "us")
	m.set("heur.tables_us", p50(spanTables), "us")
	m.set("search.seed_us", p50("search.seed"), "us")
	m.set("search.anneal_us", p50("search.anneal"), "us")
	m.set("search.iters_per_ms", perMs("search.anneal"), "1/ms")
	m.set("search.stage_share", shareOfSolve("search.seed", "search.anneal"), "ratio")
	m.set("sim.batch_us", p50("sim.batch"), "us")
	m.set("sim.reps_per_ms", perMs("sim.batch"), "1/ms")
	m.set("adapt.batch_us", p50("adapt.batch"), "us")
	m.set("sim.stage_share", shareOfSolve("sim.batch", "adapt.batch"), "ratio")
	m.set("exact.solve_us", p50("solve.exact"), "us")
	m.set("dp.solve_us", p50("solve.dp"), "us")
	m.set("frontier.solve_us", percentile(frontier, 50), "us")
}

// interval is a [start, end] time range.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other or extend past the parent;
// only the union of their intersections with the parent counts.
func selfTime(parent interval, children []interval) float64 {
	var clipped []interval
	for _, c := range children {
		if s, e := max(c.start, parent.start), min(c.end, parent.end); e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := 0.0
	var cur interval
	for k, c := range clipped {
		if k > 0 && c.start <= cur.end {
			cur.end = max(cur.end, c.end)
			continue
		}
		covered += cur.end - cur.start
		cur = c
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}

// serverSpanNames are the child spans the service records on a request
// path whose durations feed per-layer metrics.
var serverSpanNames = []string{"cache", "dedup.wait", "queue.wait", "marshal", "cluster.forward"}

// serverLayers is the per-layer view of the server's own spans (GET
// /debug/traces), in microseconds: the root span's self time and the
// durations of the named child spans.
type serverLayers struct {
	self  []float64
	named map[string][]float64
}

// analyzeTraces computes per-layer samples from recorded traces. The
// root is the span without a parent; its self time is the request time
// no child span accounts for: net/http, strict decode, the canonical
// key, middleware and logging, and the write.
func analyzeTraces(traces []obs.Trace) serverLayers {
	out := serverLayers{named: map[string][]float64{}}
	us := func(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }
	for _, t := range traces {
		children := map[string][]interval{}
		for _, s := range t.Spans {
			if s.ParentID != "" {
				children[s.ParentID] = append(children[s.ParentID], interval{us(s.Start), us(s.End)})
			}
			for _, n := range serverSpanNames {
				if s.Name == n {
					out.named[n] = append(out.named[n], s.DurationSeconds()*1e6)
				}
			}
		}
		for _, s := range t.Spans {
			if s.ParentID == "" {
				out.self = append(out.self, selfTime(interval{us(s.Start), us(s.End)}, children[s.SpanID]))
			}
		}
	}
	return out
}
