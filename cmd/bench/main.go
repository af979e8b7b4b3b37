// Command bench is the benchmark-regression harness of the CI pipeline:
// it measures the solver kernels (exact enumeration and min-cost,
// Monte-Carlo simulation, frontier sweep, heuristic search, online
// adaptation with remap repairs, DP, evaluation, cluster routing, the
// idle fleet tick, the request codec)
// on fixed-seed instances, writes ns/op, allocs/op and B/op as JSON,
// and gates only what holds on any machine.
//
// Usage:
//
//	bench [-quick] [-o BENCH_pr.json] [-minratio kernel=floor ...] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	bench -check -baseline BENCH_baseline.json -current BENCH_pr.json [-summary $GITHUB_STEP_SUMMARY]
//
// -check compares a run against the committed baseline on allocs/op: a
// rise of more than 20% fails, so a kernel at 0 must stay at 0, and a
// baseline kernel missing from the run fails, so the gate cannot be
// silently emptied. Allocation counts follow from the code and the
// workload sizes, not from the machine, so the gate enforces on any
// runner; a -quick run and a full run differ in workload sizes and are
// refused as a pair. -summary appends the comparison as a markdown table
// to the given file, which CI points at $GITHUB_STEP_SUMMARY.
//
// -minratio kernel=floor (repeatable) fails the run when the named
// same-process ratio printed as "speedup <kernel>" falls below floor, or
// is missing from the run. The P=8/P=1 ratios (exact-profiles,
// monte-carlo) are skipped, with a notice, below 4 cores where the
// speedup cannot appear. The others pit a fast path against its
// reference oracle, both single-threaded in the same run, so their
// floors hold on any machine class: search-optimize-delta (incremental
// mapping.Evaluator vs full EvaluateUnchecked over the same pinned
// neighbor cycle), monte-carlo-soa (flat-array vs scalar engine over
// the same replication batch), exact-profiles-table (the exact
// solver's term-table enumeration vs the per-partition exactref oracle
// on the same chain), pareto-filter (the frontier's archive
// dominance filter vs the all-pairs exactref oracle on the same
// profiles) and request-codec (the service's one-pass request codec vs
// the encoding/json reference decode on the same documents).
//
// ns/op is recorded and feeds those ratios, but is never compared
// against the baseline: absolute times do not transfer between
// machines. Wall-clock numbers of the served request path, end to end
// and per layer, come from `bash cmd/loadgen/bench.sh`.
// -cpuprofile/-memprofile write pprof profiles of the measurement run,
// which CI uploads as artifacts. Regenerate the baseline after an
// intentional allocation change or a change to the kernel set with:
//
//	go run ./cmd/bench -quick -o BENCH_baseline.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"relpipe/internal/adapt"
	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/dp"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/frontier"
	"relpipe/internal/heur"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/search"
	"relpipe/internal/sim"
	"relpipe/internal/sim/simref"
)

// Entry is one measured benchmark in the JSON file. AllocsPerOp and
// BytesPerOp are the -benchmem counterpart: heap allocations and bytes
// per op. Both are always written, 0 included, because -check gates
// AllocsPerOp and a kernel at 0 must stay there.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	Iterations  int     `json:"iterations"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

// File is the on-disk result document (BENCH_*.json).
type File struct {
	Quick      bool               `json:"quick"`
	GoOS       string             `json:"goos"`
	GoArch     string             `json:"goarch"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"goversion"`
	Benchmarks []Entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

// sizes scales the benchmark workloads: quick for the CI gate, full for
// local paper-scale measurement.
type sizes struct {
	exactTasks    int
	frontierTasks int
	mcReps        int
	mcDataSets    int
	searchBudget  int
	adaptReps     int
	minTime       time.Duration
	repeats       int
}

func quickSizes() sizes {
	return sizes{exactTasks: 15, frontierTasks: 14, mcReps: 16, mcDataSets: 1000,
		searchBudget: 1000, adaptReps: 8, minTime: 200 * time.Millisecond, repeats: 3}
}

func fullSizes() sizes {
	return sizes{exactTasks: 17, frontierTasks: 16, mcReps: 64, mcDataSets: 2000,
		searchBudget: 4000, adaptReps: 32, minTime: time.Second, repeats: 3}
}

// benchmark is one registered measurement: setup returns the op closure
// the timer runs.
type benchmark struct {
	name  string
	setup func(sz sizes) func()
}

// sink defeats dead-code elimination of benchmark results.
var sink float64

// paperChainPlatform is the shared fixed-seed instance generator: every
// benchmark of a given size measures identical work on every run.
func paperChainPlatform(tasks int) (chain.Chain, platform.Platform) {
	return chain.PaperRandom(rng.New(99), tasks), platform.PaperHomogeneous(10)
}

func mcConfig(sz sizes) sim.Config {
	c, pl := paperChainPlatform(12)
	m, _, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		panic(err)
	}
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: ev.WorstPeriod, DataSets: sz.mcDataSets, Seed: 99,
		InjectFailures: true, Routing: sim.TwoHop,
	}
}

func exactBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(sz.exactTasks)
		return func() {
			ps, err := exact.ProfilesPar(context.Background(), c, pl, parallelism)
			if err != nil {
				panic(err)
			}
			sink += float64(len(ps))
		}
	}
}

// exactRefBench runs exactBench's enumeration through the reference
// oracle internal/exact/exactref, single-threaded: Algo-Alloc and a full
// mapping.Evaluate per partition, which the table-driven kernel
// replaced. Both produce the same profiles bit for bit, so the ratio of
// the two is the kernel's speedup, the "exact-profiles-table" entry in
// Speedups that -minratio gates.
func exactRefBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(sz.exactTasks)
		return func() {
			ps, err := exactref.Profiles(c, pl)
			if err != nil {
				panic(err)
			}
			sink += float64(len(ps))
		}
	}
}

// minCostExactBench runs the exact min-cost solver, one sequential
// exact.Sweep, on exactBench's 15-task chain (at every size: the
// kernel guards allocations, not scaling) with uneven prices and a
// floor that needs replicas. Its allocs/op are per solve, not per
// partition, and -check keeps them there.
func minCostExactBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(15)
		costs := make([]float64, pl.P())
		for u := range costs {
			costs[u] = float64(1 + u%3)
		}
		return func() {
			sol, err := cost.Minimize(c, pl, costs, math.Log(1-1e-8), 0, 0)
			if err != nil {
				panic(err)
			}
			sink += sol.TotalCost
		}
	}
}

func monteCarloBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		cfg := mcConfig(sz)
		return func() {
			b, err := sim.RunBatch(context.Background(), cfg, sz.mcReps, parallelism, nil)
			if err != nil {
				panic(err)
			}
			sink += float64(b.Successes())
		}
	}
}

// monteCarloEngineBench measures the simulation engine itself in
// isolation: the same replication batch, single-threaded, run either
// through the flat-array engine (sim.RunBatch at P=1) or through the
// scalar reference oracle internal/sim/simref, which only tests and
// this command link. The two kernels execute bit-identical
// replications, so their ns/op ratio is the pure engine speedup — the
// "monte-carlo-soa" entry in Speedups that -minratio gates, so the
// flat-array layout cannot silently rot back to scalar cost. Parallel
// batch throughput is covered separately by the monte-carlo kernels,
// where sharding dilutes this ratio.
func monteCarloEngineBench(scalar bool) func(sz sizes) func() {
	if !scalar {
		return monteCarloBench(1)
	}
	return func(sz sizes) func() {
		cfg := mcConfig(sz)
		return func() {
			b, err := simref.RunBatch(cfg, sz.mcReps)
			if err != nil {
				panic(err)
			}
			sink += float64(b.Successes())
		}
	}
}

// searchBench measures the heuristic search engine on a fixed
// 100-stage heterogeneous instance under tight bounds (the regime the
// engine exists for), single-threaded; the fixed seed makes every run
// measure identical work.
func searchBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		r := rng.New(42)
		c := chain.PaperRandom(r, 100)
		pl := platform.PaperHeterogeneous(r, 30)
		opts := search.Options{
			Period: 25, Latency: 600, Seed: 1,
			Restarts: 4, Budget: sz.searchBudget, Parallelism: 1,
		}
		return func() {
			res, ok, err := search.Optimize(c, pl, opts)
			if err != nil || !ok {
				panic(fmt.Sprintf("search bench: ok=%v err=%v", ok, err))
			}
			sink += res.Ev.LogRel
		}
	}
}

// evalNeighbor is one pinned proposal of the eval-path kernels: a valid
// neighbor mapping plus the Touched descriptor the anneal loop would
// hand the incremental evaluator for it.
type evalNeighbor struct {
	m mapping.Mapping
	t mapping.Touched
}

// evalPathSetup pins the scoring workload of the search hot loop on
// searchBench's 100-stage heterogeneous instance: a 15-interval base
// mapping and one neighbor per portfolio neighborhood (boundary shift,
// replica swap, merge, split, add, drop, steal).
func evalPathSetup() (chain.Chain, platform.Platform, mapping.Mapping, []evalNeighbor) {
	r := rng.New(42)
	c := chain.PaperRandom(r, 100)
	pl := platform.PaperHeterogeneous(r, 30)

	// 10 intervals of 7 tasks + 5 of 6; doubled replicas on the first
	// ten, so processors 0..24 serve and 25..29 idle in the pool.
	parts := make(interval.Partition, 0, 15)
	counts := make([]int, 0, 15)
	first := 0
	for j := 0; j < 15; j++ {
		size, reps := 7, 2
		if j >= 10 {
			size, reps = 6, 1
		}
		parts = append(parts, interval.Interval{First: first, Last: first + size - 1})
		counts = append(counts, reps)
		first += size
	}
	base := mapping.AssignSequential(parts, counts)

	var nbs []evalNeighbor
	add := func(nm mapping.Mapping, t mapping.Touched) {
		if err := nm.Validate(c, pl); err != nil {
			panic(fmt.Sprintf("eval-path bench: invalid neighbor: %v", err))
		}
		nbs = append(nbs, evalNeighbor{nm, t})
	}
	nm := base.Clone() // boundary shift between intervals 7 and 8
	nm.Parts[7].Last++
	nm.Parts[8].First++
	add(nm, mapping.TouchTwo(7, 8))
	nm = base.Clone() // swap a replica of interval 3 for pool processor 25
	nm.Procs[3][1] = 25
	add(nm, mapping.TouchOne(3))
	nm = base.Clone() // merge intervals 10 and 11
	nm.Parts[10].Last = nm.Parts[11].Last
	nm.Parts = append(nm.Parts[:11], nm.Parts[12:]...)
	nm.Procs[10] = append(nm.Procs[10], nm.Procs[11]...)
	nm.Procs = append(nm.Procs[:11], nm.Procs[12:]...)
	add(nm, mapping.TouchMerge(10))
	nm = base.Clone() // split interval 2, right half staffed by processor 26
	cut := nm.Parts[2].First + 3
	np := append(interval.Partition{}, nm.Parts[:2]...)
	np = append(np, interval.Interval{First: nm.Parts[2].First, Last: cut},
		interval.Interval{First: cut + 1, Last: nm.Parts[2].Last})
	np = append(np, nm.Parts[3:]...)
	pr := append([][]int{}, nm.Procs[:3]...)
	pr = append(pr, []int{26})
	pr = append(pr, nm.Procs[3:]...)
	nm.Parts, nm.Procs = np, pr
	add(nm, mapping.TouchSplit(2))
	nm = base.Clone() // add pool processor 27 as a third replica of interval 5
	nm.Procs[5] = append(nm.Procs[5], 27)
	add(nm, mapping.TouchOne(5))
	nm = base.Clone() // drop the second replica of interval 9
	nm.Procs[9] = nm.Procs[9][:1]
	add(nm, mapping.TouchOne(9))
	nm = base.Clone() // steal a replica of interval 8 for interval 14
	u := nm.Procs[8][1]
	nm.Procs[8] = nm.Procs[8][:1]
	nm.Procs[14] = append(nm.Procs[14], u)
	add(nm, mapping.TouchTwo(8, 14))
	return c, pl, base, nbs
}

// searchEvalBench measures the scoring path of the anneal hot loop in
// isolation: one op scores the same pinned seven-neighbor cycle either
// through the incremental evaluator (Apply + Revert against a committed
// base mapping, exactly the hot loop's reject path) or through the
// full-evaluation reference oracle the engine's delta suite compares
// against. Both kernels score identical (mapping, move)
// pairs, so their ns/op ratio is the per-evaluation speedup of the
// incremental path — the "search-optimize-delta" entry in Speedups that
// -minratio gates, so the delta path cannot silently rot back to
// full-pass cost. End-to-end Optimize throughput is covered separately
// by the search-optimize/P=1 kernel, where the shared seed/propose
// machinery dilutes this ratio.
func searchEvalBench(delta bool) func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl, base, nbs := evalPathSetup()
		if delta {
			ev := mapping.NewEvaluator(c, pl, mapping.NewLinks(c, pl))
			ev.Init(base)
			return func() {
				for i := range nbs {
					e := ev.Apply(nbs[i].m, nbs[i].t)
					sink += e.LogRel
					ev.Revert()
				}
			}
		}
		return func() {
			for i := range nbs {
				e := mapping.EvaluateUnchecked(c, pl, nbs[i].m)
				sink += e.LogRel
			}
		}
	}
}

// adaptBench measures the online-adaptation hot path: a batch of
// lifetime replications under the remap policy, each replication
// running several warm-started search re-optimizations on a fixed
// 40-stage heterogeneous instance, single-threaded; the fixed seed makes
// every run measure identical work.
func adaptBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		r := rng.New(42)
		c := chain.PaperRandom(r, 40)
		pl := platform.PaperHeterogeneous(r, 12)
		res, ok, err := heur.Best(c, pl, heur.Options{}, nil)
		if err != nil || !ok {
			panic(fmt.Sprintf("adapt bench: ok=%v err=%v", ok, err))
		}
		opts := adapt.Options{
			Policy:    adapt.PolicyRemap,
			Horizon:   1000,
			LifeScale: 4e4, // ~5 crashes per mission across the 12 procs
			Seed:      1,
			Restarts:  1,
			Budget:    300,
		}
		reps := sz.adaptReps
		return func() {
			b, err := adapt.RunBatch(context.Background(), c, pl, res.M, opts, reps, 1, nil)
			if err != nil {
				panic(err)
			}
			sink += b.Summarize().MeanRepairs
		}
	}
}

func frontierBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(sz.frontierTasks)
		return func() {
			pts, err := frontier.Compute(context.Background(), c, pl, 1, nil)
			if err != nil {
				panic(err)
			}
			sink += float64(len(pts))
		}
	}
}

// paretoBench filters the profile set of frontierBench's chain, built
// once at setup, through the archive filter frontier.Front or, with
// ref, the all-pairs reference exactref.Pareto, single-threaded. Both
// keep the same profiles in the same order, so the ratio of the two is
// the filter's speedup, the "pareto-filter" entry in Speedups that
// -minratio gates.
func paretoBench(ref bool) func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(sz.frontierTasks)
		ps, err := exact.Profiles(c, pl)
		if err != nil {
			panic(err)
		}
		return func() {
			if ref {
				sink += float64(len(exactref.Pareto(ps)))
			} else {
				sink += float64(len(frontier.Front(ps, exact.Profile.Criteria)))
			}
		}
	}
}

// benchmarks is the registry; cluster.go and fleet.go append their
// kernels, and full.go (build tag "full") the paper-scale extras.
var benchmarks = []benchmark{
	{"exact-profiles/P=1", exactBench(1)},
	{"exact-profiles/P=8", exactBench(8)},
	{"exact-profiles-ref", exactRefBench()},
	{"mincost-exact/P=1", minCostExactBench()},
	{"monte-carlo/P=1", monteCarloBench(1)},
	{"monte-carlo/P=8", monteCarloBench(8)},
	{"monte-carlo-soa", monteCarloEngineBench(false)},
	{"monte-carlo-scalar", monteCarloEngineBench(true)},
	{"frontier/P=1", frontierBench()},
	{"pareto-filter", paretoBench(false)},
	{"pareto-filter-ref", paretoBench(true)},
	{"search-optimize/P=1", searchBench()},
	{"search-optimize-delta", searchEvalBench(true)},
	{"search-optimize-full", searchEvalBench(false)},
	{"adapt-remap/P=1", adaptBench()},
	{"dp-reliability", func(sz sizes) func() {
		c, pl := paperChainPlatform(15)
		return func() {
			_, ev, err := dp.OptimizeReliability(c, pl)
			if err != nil {
				panic(err)
			}
			sink += ev.LogRel
		}
	}},
	{"evaluate-mapping", func(sz sizes) func() {
		c, pl := paperChainPlatform(15)
		m, _, err := dp.OptimizeReliability(c, pl)
		if err != nil {
			panic(err)
		}
		return func() {
			ev, err := mapping.Evaluate(c, pl, m)
			if err != nil {
				panic(err)
			}
			sink += ev.LogRel
		}
	}},
}

// measure times op: repeats passes, each running op until minTime, and
// keeps the fastest pass (the least-noise estimate).
func measure(op func(), sz sizes) (nsPerOp float64, iters int) {
	op() // warm-up: page in code and data
	best := math.Inf(1)
	for rep := 0; rep < sz.repeats; rep++ {
		var total time.Duration
		n := 0
		for total < sz.minTime {
			t0 := time.Now()
			op()
			total += time.Since(t0)
			n++
		}
		ns := float64(total.Nanoseconds()) / float64(n)
		if ns < best {
			best, iters = ns, n
		}
	}
	return best, iters
}

// measureAllocs counts heap allocations per op, the way testing's
// -benchmem does but via ReadMemStats deltas: a few ops between two
// reads, averaged. Mallocs is a process-global counter, so the numbers
// include allocations made by the op's worker goroutines — exactly what
// the gate wants to catch.
func measureAllocs(op func()) (allocsPerOp, bytesPerOp float64) {
	const ops = 3
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / ops,
		float64(after.TotalAlloc-before.TotalAlloc) / ops
}

func runBenchmarks(quick bool) File {
	sz := fullSizes()
	if quick {
		sz = quickSizes()
	}
	f := File{
		Quick:      quick,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Speedups:   map[string]float64{},
	}
	byName := map[string]float64{}
	for _, b := range benchmarks {
		op := b.setup(sz)
		ns, iters := measure(op, sz)
		allocs, bytes := measureAllocs(op)
		f.Benchmarks = append(f.Benchmarks, Entry{
			Name: b.name, NsPerOp: ns, Iterations: iters,
			AllocsPerOp: allocs, BytesPerOp: bytes,
		})
		byName[b.name] = ns
		fmt.Printf("%-24s %14.0f ns/op  %12.0f B/op  %10.0f allocs/op  (%d iters)\n",
			b.name, ns, bytes, allocs, iters)
	}
	for _, base := range parallelRatios {
		p1, ok1 := byName[base+"/P=1"]
		p8, ok8 := byName[base+"/P=8"]
		if ok1 && ok8 && p8 > 0 {
			f.Speedups[base] = p1 / p8
			fmt.Printf("speedup %-16s %.2fx (P=8 vs P=1, GOMAXPROCS=%d)\n", base, p1/p8, f.GoMaxProcs)
		}
	}
	for _, r := range oracleRatios {
		fast, okF := byName[r.fast]
		ref, okR := byName[r.ref]
		if okF && okR && fast > 0 {
			f.Speedups[r.name] = ref / fast
			fmt.Printf("speedup %-16s %.2fx (%s)\n", r.name, ref/fast, r.what)
		}
	}
	return f
}

func loadFile(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// allocThreshold is the relative allocs/op rise -check tolerates.
const allocThreshold = 0.20

// summaryRow is one baseline kernel's comparison, kept for the -summary
// markdown rendering alongside check's plain-text report.
type summaryRow struct {
	name                  string
	status                string // ok / ALLOC-REG / MISSING
	baseAllocs, curAllocs float64
}

// check compares current against baseline: every baseline kernel must
// be present in the current run, and its allocs/op must not exceed the
// baseline's by more than allocThreshold, so a baseline of 0 admits only
// 0. It returns the number of failures and one row per baseline kernel.
// A -quick run against a full one is an error, not a comparison:
// allocs/op scale with the workload sizes.
func check(baseline, current File, out io.Writer) (int, []summaryRow, error) {
	if baseline.Quick != current.Quick {
		return 0, nil, fmt.Errorf("baseline quick=%t but current quick=%t: allocs/op depend on the workload sizes, so both runs must use the same mode",
			baseline.Quick, current.Quick)
	}
	fmt.Fprintf(out, "baseline: %s/%s GOMAXPROCS=%d %s\n",
		baseline.GoOS, baseline.GoArch, baseline.GoMaxProcs, baseline.GoVersion)
	fmt.Fprintf(out, "current:  %s/%s GOMAXPROCS=%d %s\n",
		current.GoOS, current.GoArch, current.GoMaxProcs, current.GoVersion)
	cur := map[string]Entry{}
	for _, e := range current.Benchmarks {
		cur[e.Name] = e
	}
	var rows []summaryRow
	failures := 0
	for _, base := range baseline.Benchmarks {
		row := summaryRow{name: base.Name, status: "ok", baseAllocs: base.AllocsPerOp}
		if e, ok := cur[base.Name]; !ok {
			row.status = "MISSING"
			fmt.Fprintf(out, "%-10s %-24s baseline kernel absent from current run\n", row.status, base.Name)
		} else {
			row.curAllocs = e.AllocsPerOp
			if e.AllocsPerOp > base.AllocsPerOp*(1+allocThreshold) {
				row.status = "ALLOC-REG"
			}
			fmt.Fprintf(out, "%-10s %-24s %12.1f -> %12.1f allocs/op\n",
				row.status, base.Name, base.AllocsPerOp, e.AllocsPerOp)
		}
		if row.status != "ok" {
			failures++
		}
		rows = append(rows, row)
	}
	return failures, rows, nil
}

// writeSummary appends a GitHub-flavored markdown table of the -check
// comparison to path (typically $GITHUB_STEP_SUMMARY), so a flagged
// regression is readable from the job page without downloading
// artifacts.
func writeSummary(path string, baseline, current File, rows []summaryRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark gate: baseline vs PR\n\n")
	fmt.Fprintf(&b, "Baseline: `%s/%s` GOMAXPROCS=%d %s — PR: `%s/%s` GOMAXPROCS=%d %s\n\n",
		baseline.GoOS, baseline.GoArch, baseline.GoMaxProcs, baseline.GoVersion,
		current.GoOS, current.GoArch, current.GoMaxProcs, current.GoVersion)
	b.WriteString("| Kernel | allocs/op (base → PR) | Δ allocs | Status |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range rows {
		allocs, dAllocs := "–", "–"
		if r.status != "MISSING" {
			allocs = fmt.Sprintf("%.1f → %.1f", r.baseAllocs, r.curAllocs)
			if r.baseAllocs > 0 {
				dAllocs = fmt.Sprintf("%+.1f%%", (r.curAllocs/r.baseAllocs-1)*100)
			}
		}
		status := map[string]string{
			"ok": "✅ ok", "ALLOC-REG": "❌ alloc regression", "MISSING": "❌ missing kernel",
		}[r.status]
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", r.name, allocs, dAllocs, status)
	}
	b.WriteString("\nns/op is not compared against the baseline: absolute times do not transfer between machines. Speed is gated by the same-process `-minratio` floors; wall-clock numbers come from `bash cmd/loadgen/bench.sh`.\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(b.String())
	return err
}

// oracleRatios are the Speedups entries that pit a fast kernel against
// its reference oracle: same workload, single-threaded, same run, so the
// ratio (ref ns/op over fast ns/op) is machine-class independent and
// -minratio can gate it hard on any runner.
var oracleRatios = []struct{ name, fast, ref, what string }{
	{"search-optimize-delta", "search-optimize-delta", "search-optimize-full", "incremental vs full evaluation"},
	{"monte-carlo-soa", "monte-carlo-soa", "monte-carlo-scalar", "flat-array vs scalar engine"},
	{"exact-profiles-table", "exact-profiles/P=1", "exact-profiles-ref", "term table vs per-partition evaluation"},
	{"pareto-filter", "pareto-filter", "pareto-filter-ref", "archive vs all-pairs dominance filter"},
	{"request-codec", "request-codec", "request-codec-ref", "one-pass request codec vs encoding/json"},
}

// parallelRatios are the kernels whose Speedups entry is the P=8/P=1
// ratio, which cannot appear on fewer than 4 cores. Each backs a CI
// -minratio floor; a P=8 kernel that feeds no floor is not measured.
var parallelRatios = []string{"exact-profiles", "monte-carlo"}

// ratioFloors is the repeatable -minratio kernel=floor flag.
type ratioFloors map[string]float64

func (r ratioFloors) String() string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(r)) {
		parts = append(parts, k+"="+strconv.FormatFloat(r[k], 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

func (r ratioFloors) Set(s string) error {
	kernel, v, ok := strings.Cut(s, "=")
	if !ok || kernel == "" {
		return fmt.Errorf("want kernel=floor, got %q", s)
	}
	floor, err := strconv.ParseFloat(v, 64)
	if err != nil || floor <= 0 {
		return fmt.Errorf("floor for %s must be a positive number, got %q", kernel, v)
	}
	r[kernel] = floor
	return nil
}

// checkRatios enforces every -minratio floor against the run's Speedups
// and returns the number of violations. A ratio missing from the run
// fails; a parallel ratio is skipped, with a notice, below 4 cores.
func checkRatios(f File, floors ratioFloors, out io.Writer) int {
	failures := 0
	for _, kernel := range slices.Sorted(maps.Keys(floors)) {
		floor := floors[kernel]
		if slices.Contains(parallelRatios, kernel) && f.GoMaxProcs < 4 {
			fmt.Fprintf(out, "minratio: %s skipped, GOMAXPROCS=%d < 4 cannot show parallel speedup\n", kernel, f.GoMaxProcs)
			continue
		}
		s, ok := f.Speedups[kernel]
		switch {
		case !ok:
			fmt.Fprintf(out, "minratio: %s missing from this run\n", kernel)
			failures++
		case s < floor:
			fmt.Fprintf(out, "minratio: %s speedup %.2fx below floor %.2fx\n", kernel, s, floor)
			failures++
		}
	}
	return failures
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "reduced workloads (the CI gate's configuration)")
	out := flag.String("o", "", "write results as JSON to this file")
	minRatios := ratioFloors{}
	flag.Var(minRatios, "minratio",
		"kernel=floor: fail when that speedup ratio is below floor or missing (repeatable; P=8/P=1 ratios skip below 4 cores)")
	summaryPath := flag.String("summary", "",
		"with -check: append a markdown comparison table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	doCheck := flag.Bool("check", false, "compare -current against -baseline (allocs/op, missing kernels) instead of running")
	basePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON for -check")
	curPath := flag.String("current", "BENCH_pr.json", "current JSON for -check")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	flag.Parse()

	if *doCheck {
		baseline, err := loadFile(*basePath)
		if err != nil {
			fatal(err)
		}
		current, err := loadFile(*curPath)
		if err != nil {
			fatal(err)
		}
		n, rows, err := check(baseline, current, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *summaryPath != "" {
			if err := writeSummary(*summaryPath, baseline, current, rows); err != nil {
				fatal(err)
			}
		}
		if n > 0 {
			fatal(fmt.Errorf("%d kernel(s) missing or over the allocs/op bound", n))
		}
		return
	}

	// Profiles are stopped/written explicitly (not deferred) because the
	// failure paths below leave through os.Exit, which skips defers.
	var cpuFile *os.File
	if *cpuProfile != "" {
		var err error
		if cpuFile, err = os.Create(*cpuProfile); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}

	f := runBenchmarks(*quick)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Printf("wrote %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		runtime.GC() // settle the heap so the profile shows retained allocations
		mf, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fatal(err)
		}
		mf.Close()
		fmt.Printf("wrote %s\n", *memProfile)
	}
	failures := checkRatios(f, minRatios, os.Stdout)
	if *out != "" {
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d ratio(s) below their -minratio floor", failures))
	}
}
