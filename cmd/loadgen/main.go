// Command loadgen is the end-to-end benchmark of the solver service. It
// builds cmd/serve from the repository in the working directory, starts
// fresh server processes for each of four traffic mixes (workloads),
// drives them over HTTP and reports, per workload, the metrics a user of
// the service sees:
//
//	setup_s         server exec to /readyz 200 on every node plus prefill (median of 10)
//	latency_ms      mean latency of one client sending one request at a time
//	capacity_rps    successful responses per second, closed loop of 2 clients
//	cpu_ms_per_req  server user+system CPU per successful open-loop request
//	rss_mb          peak resident memory (VmHWM) of the server processes
//
// A run is five server lifetimes (passes) in a row, each with its share
// of an open loop at the workload's fixed rate, the one-client loop and
// the two-client loop; per-pass values are reduced to medians. Every
// timing is scaled to a reference speed by a calibrator that measures,
// during each phase, the speed of the shared host's CPUs and the share
// of their time the hypervisor stole (calib.go); each output line also
// gives the value as measured. The open loop's latency percentiles are
// printed as measured; no bound covers them.
//
// Every pass ends with a correctness gate: sampled answers, and every
// non-200, are re-solved in-process through the relpipe facade and must
// be byte-identical. A wrong answer makes the command exit 1.
//
// A traced run (-trace 1, or -trace FILE to also write the spans) gives
// the per-layer split instead: an in-process replay that times each
// layer's public function, the server's own spans from
// GET /debug/traces, and /metrics counters. See README.md for the
// metric tables, the workloads, and how to read a traced run; cmd/bench
// remains the kernel-level gate.
//
// Usage (from the repository root; cmd/loadgen is a module of its own,
// and bench.sh builds and runs it with every output under .bench_build):
//
//	bash cmd/loadgen/bench.sh [-seed 1] [-workload name] [-seconds 26] [-trace 0|1|FILE] [-o results.json]
//	bash cmd/loadgen/bench.sh compare [-claim workload/metric] base/*.json change/*.json
//
// With -workload, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of a timed run, or the per-layer metrics of a traced one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"relpipe/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// report is the results document written by -o.
type report struct {
	Seed        uint64    `json:"seed"`
	NProc       int       `json:"nproc"`
	GoVersion   string    `json:"goVersion"`
	WallSeconds float64   `json:"wallSeconds"`
	Traced      bool      `json:"traced"`
	Workloads   []*result `json:"workloads"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the generated request bodies and arrival times")
	name := fs.String("workload", "", "run one workload (default: all)")
	seconds := fs.Int("seconds", 26, "measuring time per workload")
	trace := fs.String("trace", "0", "0: timed run; 1: traced per-layer run; FILE: traced run writing its spans to FILE")
	out := fs.String("o", "", "write the results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -seconds must be at least 1")
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected argument %q (compare must come first)\n", fs.Arg(0))
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "loadgen: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	traced := *trace != "0" && *trace != ""
	spansPath := ""
	if traced && *trace != "1" {
		spansPath = *trace
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	bin, err := buildServe(ctx, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}

	cfg := configFor(bin, *seconds, traced)
	rep := report{Seed: *seed, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Traced: traced}
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, w, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	rep.WallSeconds = time.Since(start).Seconds()

	if spansPath != "" {
		if err := writeSpans(spansPath, rep.Workloads); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	correct := true
	for _, r := range rep.Workloads {
		correct = correct && r.Correct
	}
	if len(rep.Workloads) == 1 {
		r := rep.Workloads[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "loadgen: wrong answers: the service disagrees with the in-process solve")
		return 1
	}
	return 0
}

// printResult prints one "workload metric value unit" line per metric,
// sorted by name, after commented status lines. A timed run's line also
// gives the value as measured, before scaling to the reference speed.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s attempted=%d failed=%d wrong=%d generator-lateness-p99=%.3fms\n",
		r.Workload, r.Attempted, r.Failed, r.Wrong, r.Lateness)
	if r.Measured != nil {
		fmt.Fprintf(w, "# %s calibration-kernel=%.4fms (reference %gms) open-loop measured p50=%.4gms p99=%.4gms\n",
			r.Workload, r.CalibMs, calibRefMs, r.OpenP50Ms, r.OpenP99Ms)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s", r.Workload, n, m.Value, m.Unit)
		if raw, ok := r.Measured[n]; ok {
			fmt.Fprintf(w, " (measured %.6g)", raw.Value)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes a traced run's spans: the replay's own spans and,
// per workload, the server traces of the traced pass.
func writeSpans(path string, results []*result) error {
	doc := struct {
		Replay []span                 `json:"replay"`
		Server map[string][]obs.Trace `json:"server"`
	}{Server: map[string][]obs.Trace{}}
	for _, r := range results {
		doc.Replay = append(doc.Replay, r.spans...)
		doc.Server[r.Workload] = r.traces
	}
	return writeJSON(path, doc)
}
