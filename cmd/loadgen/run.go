package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"relpipe/internal/obs"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// config is how long and how a workload run measures.
type config struct {
	serve  string        // the cmd/serve binary
	open   time.Duration // open-loop phase (each of the two passes when traced)
	single time.Duration // closed loop of one client (untraced runs only)
	closed time.Duration // closed loop of conns clients (untraced runs only)
	passes int           // server lifetimes an untraced run splits its phases over
	replay int           // requests a traced run replays in-process
	traced bool
}

// configFor splits a measuring budget of seconds over the phases: two
// fifths open loop and three tenths each closed loop, or, when traced,
// two open-loop passes of half each.
func configFor(serve string, seconds int, traced bool) config {
	total := time.Duration(seconds) * time.Second
	c := config{serve: serve, passes: 5, replay: 500, traced: traced,
		open: total * 2 / 5, single: total * 3 / 10, closed: total * 3 / 10}
	if traced {
		c.open = total / 2
	}
	return c
}

// traceCapacity sizes the traced servers' recorders to hold every
// request of a pass.
const traceCapacity = 65536

// result is one workload's outcome.
type result struct {
	Workload  string  `json:"workload"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Wrong     int     `json:"wrong"`
	Correct   bool    `json:"correct"`
	Lateness  float64 `json:"generatorLatenessP99Ms"`
	Metrics   metrics `json:"metrics"`
	// Measured holds the timed run's end-to-end metrics before scaling to
	// the reference speed, CalibMs the calibration kernel's mean time
	// that scaled them, and OpenP50Ms and OpenP99Ms the open loop's
	// latency percentiles, which no bound covers. All are unscaled.
	Measured  metrics `json:"measured,omitempty"`
	CalibMs   float64 `json:"calibrationKernelMs,omitempty"`
	OpenP50Ms float64 `json:"openLoopP50Ms,omitempty"`
	OpenP99Ms float64 `json:"openLoopP99Ms,omitempty"`

	lateness []float64 // generator lateness samples, ms
	spans    []span
	traces   []obs.Trace
}

// runWorkload measures one workload against fresh server processes.
func runWorkload(ctx context.Context, cfg config, w workload, seed uint64) (*result, error) {
	res := &result{Workload: w.name, Metrics: metrics{}}
	run := runTimed
	if cfg.traced {
		run = runTraced
	}
	if err := run(ctx, cfg, w, seed, res); err != nil {
		return nil, err
	}
	res.Correct = res.Wrong == 0
	res.Failed += res.Wrong
	res.Lateness = percentile(res.lateness, 99)
	return res, nil
}

// pass is one server lifetime: start, set up, measure.
type pass struct {
	c      *cluster
	client *client
	setup  float64 // seconds from exec to ready plus prefill
}

func startPass(ctx context.Context, cfg config, w workload, s *stream, traces int) (*pass, error) {
	t0 := time.Now()
	c, err := startCluster(ctx, cfg.serve, w.nodes, traces)
	if err != nil {
		return nil, err
	}
	cl := newClient(c.nodes[0].url)
	if err := sendAll(ctx, cl, s.setup); err != nil {
		cl.close()
		c.stop()
		return nil, err
	}
	return &pass{c: c, client: cl, setup: time.Since(t0).Seconds()}, nil
}

func (p *pass) stop() {
	p.client.close()
	p.c.stop()
}

// openLoop runs the open loop against the pass's servers and returns it
// with the CPU seconds the servers spent meanwhile.
func (p *pass) openLoop(ctx context.Context, arrivals []arrival, samples int) (phaseResult, float64, error) {
	cpu0, err := p.c.cpuTicks()
	if err != nil {
		return phaseResult{}, 0, err
	}
	open := openLoop(ctx, p.client, arrivals, samples)
	cpu1, err := p.c.cpuTicks()
	if err != nil {
		return phaseResult{}, 0, err
	}
	return open, float64(cpu1-cpu0) / ticksPerSecond, nil
}

// scrape reads every node's /metrics, summed per series.
func (p *pass) scrape(ctx context.Context) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, nd := range p.c.nodes {
		b, err := nd.get(ctx, "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := promSums(string(b))
		if err != nil {
			return nil, fmt.Errorf("parse %s/metrics: %w", nd.url, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// setupsPerPass is how many set-ups each pass of an untraced run times:
// the last one's servers are measured, the others are stopped at once.
const setupsPerPass = 2

// samples collects one metric's values as measured and as scaled to the
// reference (see calib.go).
type samples struct{ measured, scaled []float64 }

func (s *samples) add(v, scale float64) {
	s.measured = append(s.measured, v)
	s.scaled = append(s.scaled, v*scale)
}

// runTimed is the untraced run: the end-to-end metrics. The run is
// cfg.passes server lifetimes in a row, each with its share of every
// phase, so that every metric samples the whole run; per-pass values are
// reduced to medians. Each phase's timings are scaled to the reference
// by what the calibrator measured during that phase. The open-loop
// schedule is drawn whole before the first pass and cut into segments,
// so a seed gives the same requests at any number of passes.
func runTimed(ctx context.Context, cfg config, w workload, seed uint64, res *result) error {
	s := newStream(w, seed)
	segments := splitArrivals(s.arrivals(cfg.open), cfg.passes, cfg.open)
	gateShare := (gateSamples + cfg.passes - 1) / cfg.passes
	var setups, latency, capacity, cpu samples
	var open, rss []float64
	cal := startCalibrator()
	defer cal.close()
	start := time.Now()
	// measure runs one phase and returns what the calibrator measured
	// over it.
	measure := func(phase func() error) (phaseScale, error) {
		ph, err := cal.begin()
		if err != nil {
			return phaseScale{}, err
		}
		if err := phase(); err != nil {
			return phaseScale{}, err
		}
		return cal.end(ph)
	}
	for _, seg := range segments {
		err := func() error {
			var p *pass
			var passSetups []float64
			sc, err := measure(func() error {
				for i := 0; i < setupsPerPass; i++ {
					if p != nil {
						p.stop()
					}
					var err error
					if p, err = startPass(ctx, cfg, w, s, -1); err != nil {
						return err
					}
					passSetups = append(passSetups, p.setup)
				}
				return nil
			})
			if p != nil {
				defer p.stop()
			}
			if err != nil {
				return err
			}
			for _, v := range passSetups {
				setups.add(v, sc.wall())
			}

			var ol phaseResult
			var cpuSeconds float64
			if sc, err = measure(func() (err error) {
				ol, cpuSeconds, err = p.openLoop(ctx, seg, gateShare)
				return err
			}); err != nil {
				return err
			}
			cpu.add(ratio(cpuSeconds*1000, float64(ol.ok)), sc.speed)
			open = append(open, ol.latencies...)

			var single phaseResult
			if sc, err = measure(func() error {
				single = closedLoop(ctx, p.client, s, cfg.single/time.Duration(cfg.passes), 1)
				return nil
			}); err != nil {
				return err
			}
			// The mean, not a percentile: stolen time comes in bursts that
			// delay few requests by much, so it moves the mean in
			// proportion to the stolen share but a percentile by anything
			// from nothing to all of it.
			if len(single.latencies) > 0 {
				latency.add(mean(single.latencies), sc.wall())
			}

			var closed phaseResult
			if sc, err = measure(func() error {
				closed = closedLoop(ctx, p.client, s, cfg.closed/time.Duration(cfg.passes), conns)
				return nil
			}); err != nil {
				return err
			}
			// At the reference the same work takes less time: throughput
			// scales by the inverse.
			capacity.add(float64(closed.ok)/closed.elapsed.Seconds(), 1/sc.wall())

			peak, err := p.c.peakRSSMB()
			if err != nil {
				return err
			}
			rss = append(rss, peak)
			res.absorb(ol, single, closed)
			return ctx.Err()
		}()
		if err != nil {
			return err
		}
	}
	res.CalibMs = calibRefMs / cal.speed(start, time.Now())
	res.OpenP50Ms = percentile(open, 50)
	if supportsP99(len(open)) {
		res.OpenP99Ms = percentile(open, 99)
	}
	res.Measured = metrics{}
	for i, m := range []metrics{res.Measured, res.Metrics} {
		pick := func(s samples) []float64 { return [][]float64{s.measured, s.scaled}[i] }
		m.set("setup_s", median(pick(setups)), "s")
		m.set("latency_ms", median(pick(latency)), "ms")
		m.set("capacity_rps", median(pick(capacity)), "req/s")
		m.set("cpu_ms_per_req", median(pick(cpu)), "ms")
		m.set("rss_mb", median(rss), "MB")
	}
	return nil
}

// splitArrivals cuts an open-loop schedule of length d into n segments
// of equal length, each timed from its own start.
func splitArrivals(arrivals []arrival, n int, d time.Duration) [][]arrival {
	segs := make([][]arrival, n)
	seg := d / time.Duration(n)
	for _, a := range arrivals {
		j := min(int(a.due/seg), n-1)
		a.due -= time.Duration(j) * seg
		segs[j] = append(segs[j], a)
	}
	return segs
}

// absorb counts the phases' requests, keeps their generator lateness
// and checks their answers.
func (r *result) absorb(phases ...phaseResult) {
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed()
		r.Wrong += gate(ph.checked)
		r.lateness = append(r.lateness, ph.lateness...)
	}
}

// gate re-solves every sampled answer in-process and counts the
// responses that are not byte-identical. A non-200 is already a
// failure; it is re-solved too, to report whether the request itself
// was bad or the server failed it.
func gate(checked []outcome) int {
	wrong := 0
	for _, o := range checked {
		want, err := solveBody(o.q)
		if o.status != http.StatusOK {
			fmt.Fprintf(os.Stderr, "loadgen: %s answered %d (%s); in-process solve error: %v\n",
				o.q.kind, o.status, truncate(o.body), err)
			continue
		}
		if err != nil || !bytes.Equal(want, o.body) {
			wrong++
			fmt.Fprintf(os.Stderr, "loadgen: WRONG ANSWER %s: in-process error %v\n  request:  %s\n  server:   %s\n  expected: %s\n",
				o.q.kind, err, truncate(o.q.body), truncate(o.body), truncate(want))
		}
	}
	return wrong
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the per-layer run: an in-process replay of the first
// requests, an untraced open-loop pass whose /metrics counters give the
// counter layers, and a traced pass on the same arrivals whose spans
// give the server layers and, against the untraced p50, the tracing
// overhead.
func runTraced(ctx context.Context, cfg config, w workload, seed uint64, res *result) error {
	s := newStream(w, seed)
	first := make([]request, cfg.replay)
	for i := range first {
		first[i] = s.next()
	}
	spans, err := replay(w.name, s.setup, first)
	if err != nil {
		return err
	}
	res.spans = spans
	m := res.Metrics
	replayLayers(spans, m)

	untraced, err := profilePass(ctx, cfg, w, seed, -1)
	if err != nil {
		return err
	}
	traced, err := profilePass(ctx, cfg, w, seed, traceCapacity)
	if err != nil {
		return err
	}
	res.absorb(untraced.open, traced.open)
	res.traces = traced.traces
	counterLayers(untraced.before, untraced.after, untraced.cpuSeconds, untraced.open.attempted, m)
	serverSpanLayers(analyzeTraces(traced.traces), m)
	p50u, p50t := percentile(untraced.open.latencies, 50), percentile(traced.open.latencies, 50)
	m.set("obs.trace_overhead_pct", 100*ratio(p50t-p50u, p50u), "%")
	return nil
}

// profile is what one open-loop pass of a traced run measured.
type profile struct {
	open          phaseResult
	before, after []map[string]float64 // per-node /metrics around the pass
	cpuSeconds    float64
	traces        []obs.Trace // recorded during the pass, when tracing
}

// profilePass starts servers recording up to traces traces (negative:
// none), sets them up and runs the workload's open loop once.
func profilePass(ctx context.Context, cfg config, w workload, seed uint64, traces int) (profile, error) {
	var pr profile
	s := newStream(w, seed)
	arrivals := s.arrivals(cfg.open)
	p, err := startPass(ctx, cfg, w, s, traces)
	if err != nil {
		return pr, err
	}
	defer p.stop()
	if pr.before, err = p.scrape(ctx); err != nil {
		return pr, err
	}
	start := time.Now()
	if pr.open, pr.cpuSeconds, err = p.openLoop(ctx, arrivals, gateSamples); err != nil {
		return pr, err
	}
	if pr.after, err = p.scrape(ctx); err != nil {
		return pr, err
	}
	if traces > 0 {
		if pr.traces, err = p.traces(ctx, start); err != nil {
			return pr, err
		}
	}
	return pr, ctx.Err()
}

// traces fetches the traces every node recorded since start (the
// prefill's traces are left out).
func (p *pass) traces(ctx context.Context, start time.Time) ([]obs.Trace, error) {
	var out []obs.Trace
	for _, nd := range p.c.nodes {
		b, err := nd.get(ctx, "/debug/traces")
		if err != nil {
			return nil, err
		}
		var doc struct {
			Traces []obs.Trace `json:"traces"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("decode %s/debug/traces: %w", nd.url, err)
		}
		for _, t := range doc.Traces {
			if !t.Start.Before(start) {
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// serverSpanLayers reduces the server's spans to per-layer metrics.
func serverSpanLayers(l serverLayers, m metrics) {
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	m.set("service.self_us", p50(l.self), "us")
	m.set("service.cache_us", p50(l.named["cache"]), "us")
	m.set("service.dedup_wait_us", p50(l.named["dedup.wait"]), "us")
	m.set("service.marshal_us", p50(l.named["marshal"]), "us")
	m.set("cluster.forward_us", p50(l.named["cluster.forward"]), "us")
	q := l.named["queue.wait"]
	m.set("service.queue_wait_us", p50(q), "us")
	// A p99 is reported only where at least ten samples lie beyond it;
	// 0 marks a pass whose sample does not support one.
	p99 := 0.0
	if supportsP99(len(q)) {
		p99 = percentile(q, 99)
	}
	m.set("service.queue_wait_p99_us", p99, "us")
}

// counterLayers turns the /metrics deltas of a pass into ratios: node 0
// is the entry node every request is sent to.
func counterLayers(before, after []map[string]float64, cpuSeconds float64, attempted int, m metrics) {
	delta := func(node int, name string) float64 { return after[node][name] - before[node][name] }
	sum := func(name string) float64 {
		s := 0.0
		for i := range after {
			s += delta(i, name)
		}
		return s
	}
	hits, misses := delta(0, "relpipe_cache_hits_total"), delta(0, "relpipe_cache_misses_total")
	// A miss that joins an identical in-flight request (a burst's
	// follower) neither solves nor forwards; leaders do one or the other.
	joins := delta(0, "relpipe_dedup_joins_total")
	// Misses answered by a local solve path (forwarded misses are solved,
	// and counted again, on their owner).
	local := sum("relpipe_cache_misses_total") - sum("relpipe_cluster_forwards_total")
	m.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("batch.coalesced_ratio", ratio(sum("relpipe_solve_batch_coalesced_total"), local), "ratio")
	m.set("batch.tables_per_miss", ratio(sum("relpipe_solve_batch_tables_built_total"), local), "ratio")
	m.set("cluster.forward_ratio", ratio(delta(0, "relpipe_cluster_forwards_total"), misses-joins), "ratio")
	m.set("cluster.fallbacks", sum("relpipe_cluster_fallbacks_total"), "count")
	m.set("service.dedup_ratio", ratio(joins, misses), "ratio")
	m.set("service.solves_per_req", ratio(sum("relpipe_solves_total"), float64(attempted)), "ratio")
	m.set("service.rejected", sum("relpipe_rejected_total"), "count")
	m.set("service.solver_busy_share", ratio(sum("relpipe_solve_duration_seconds_sum"), cpuSeconds), "ratio")
}
