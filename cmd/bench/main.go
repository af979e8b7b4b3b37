// Command bench is the benchmark-regression harness of the CI pipeline:
// it measures the tagged hot-path kernels (exact enumeration, Monte-Carlo
// simulation, frontier sweep, heuristic search, online adaptation with
// remap repairs, DP, evaluation) at parallelism 1 and 8,
// writes the numbers as JSON, and — in -check mode — compares a current
// run against a committed baseline, failing on >threshold ns/op
// regressions.
//
// Usage:
//
//	bench [-quick] [-o BENCH_pr.json] [-minratio kernel=floor ...] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	bench -check -baseline BENCH_baseline.json -current BENCH_pr.json [-threshold 0.20] [-allocthreshold 0.20] [-summary $GITHUB_STEP_SUMMARY]
//
// Every entry also records allocs/op and B/op (ReadMemStats deltas, the
// -benchmem counterpart); -check gates allocs/op at -allocthreshold.
// -cpuprofile/-memprofile write pprof profiles of the measurement run —
// CI uploads them as artifacts so a regression comes with its profile
// attached. -summary (with -check) appends the comparison as a markdown
// table to the given file, which CI points at $GITHUB_STEP_SUMMARY so a
// flagged regression is readable without downloading artifacts.
//
// -minratio kernel=floor (repeatable) fails the run when the named
// same-process ratio printed as "speedup <kernel>" falls below floor, or
// is missing from the run. The P=8/P=1 ratios (exact-profiles,
// monte-carlo, frontier, search-optimize, adapt-remap) are skipped, with
// a notice, below 4 cores where the speedup cannot appear; this is how
// CI gates the parallel kernels, whose absolute ns/op is not comparable
// to a baseline recorded on different core counts. The other two ratios
// pit a fast path against its reference oracle, both single-threaded in
// the same run, so their floors hold on any machine class:
// search-optimize-delta (incremental mapping.Evaluator vs full
// EvaluateUnchecked over the same pinned neighbor cycle) and
// monte-carlo-soa (flat-array vs scalar engine over the same
// replication batch).
//
// Every instance generator is seeded from a fixed rng seed, so two runs
// on the same machine measure identical work. To compare across machines
// of the same class, -check normalizes each ns/op by the run's
// "calibrate" entry (a fixed arithmetic kernel measured alongside the
// real benchmarks), cancelling most single-thread speed differences.
// Regenerate the baseline with:
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
	"relpipe/internal/dp"
	"relpipe/internal/exact"
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

// tagHotPath marks the benchmarks the CI regression gate enforces.
const tagHotPath = "hotpath"

// Entry is one measured benchmark in the JSON file. AllocsPerOp and
// BytesPerOp are the -benchmem counterpart: heap allocations and bytes
// per op (absent in files written before the alloc gate existed, which
// the checker treats as "no alloc baseline — skip").
type Entry struct {
	Name        string   `json:"name"`
	Tags        []string `json:"tags,omitempty"`
	NsPerOp     float64  `json:"nsPerOp"`
	Iterations  int      `json:"iterations"`
	AllocsPerOp float64  `json:"allocsPerOp,omitempty"`
	BytesPerOp  float64  `json:"bytesPerOp,omitempty"`
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
	tags  []string
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

func monteCarloBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		cfg := mcConfig(sz)
		return func() {
			b, err := sim.RunBatch(context.Background(), cfg, sz.mcReps, parallelism)
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
// engine exists for); restarts shard across the portfolio at the given
// degree, and the fixed seed makes every run measure identical work.
func searchBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		r := rng.New(42)
		c := chain.PaperRandom(r, 100)
		pl := platform.PaperHeterogeneous(r, 30)
		opts := search.Options{
			Period: 25, Latency: 600, Seed: 1,
			Restarts: 4, Budget: sz.searchBudget, Parallelism: parallelism,
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
// full-evaluation reference oracle the engine uses under
// Options.ReferenceEval. Both kernels score identical (mapping, move)
// pairs, so their ns/op ratio is the per-evaluation speedup of the
// incremental path — the "search-optimize-delta" entry in Speedups that
// -minratio gates, so the delta path cannot silently rot back to
// full-pass cost. End-to-end Optimize throughput is covered separately
// by the search-optimize kernels, where the shared seed/propose
// machinery dilutes this ratio.
func searchEvalBench(delta bool) func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl, base, nbs := evalPathSetup()
		if delta {
			ev := mapping.NewEvaluator(c, pl)
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
// 40-stage heterogeneous instance. Replications shard across the given
// degree; the fixed seed makes every run measure identical work.
func adaptBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		r := rng.New(42)
		c := chain.PaperRandom(r, 40)
		pl := platform.PaperHeterogeneous(r, 12)
		res, ok, err := heur.Best(c, pl, heur.Options{})
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
			b, err := adapt.RunBatch(context.Background(), c, pl, res.M, opts, reps, parallelism)
			if err != nil {
				panic(err)
			}
			sink += b.Summarize().MeanRepairs
		}
	}
}

func frontierBench(parallelism int) func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(sz.frontierTasks)
		return func() {
			pts, err := frontier.ComputePar(context.Background(), c, pl, parallelism)
			if err != nil {
				panic(err)
			}
			sink += float64(len(pts))
		}
	}
}

// benchmarks is the registry; registerFull (build tag "full") appends the
// paper-scale extras.
var benchmarks = []benchmark{
	{"calibrate", nil, func(sizes) func() {
		// A fixed arithmetic kernel (same flavour of work as the
		// solvers: PRNG draws + transcendentals) used to normalize
		// ns/op across machines of the same class.
		return func() {
			r := rng.New(1)
			s := 0.0
			for i := 0; i < 2_000_000; i++ {
				s += math.Log1p(r.Float64())
			}
			sink += s
		}
	}},
	{"exact-profiles/P=1", []string{tagHotPath}, exactBench(1)},
	{"exact-profiles/P=8", []string{tagHotPath}, exactBench(8)},
	{"monte-carlo/P=1", []string{tagHotPath}, monteCarloBench(1)},
	{"monte-carlo/P=8", []string{tagHotPath}, monteCarloBench(8)},
	{"monte-carlo-soa", []string{tagHotPath}, monteCarloEngineBench(false)},
	{"monte-carlo-scalar", []string{tagHotPath}, monteCarloEngineBench(true)},
	{"frontier/P=1", []string{tagHotPath}, frontierBench(1)},
	{"frontier/P=8", []string{tagHotPath}, frontierBench(8)},
	{"search-optimize/P=1", []string{tagHotPath}, searchBench(1)},
	{"search-optimize/P=8", []string{tagHotPath}, searchBench(8)},
	{"search-optimize-delta", []string{tagHotPath}, searchEvalBench(true)},
	{"search-optimize-full", []string{tagHotPath}, searchEvalBench(false)},
	{"adapt-remap/P=1", []string{tagHotPath}, adaptBench(1)},
	{"adapt-remap/P=8", []string{tagHotPath}, adaptBench(8)},
	{"dp-reliability", []string{tagHotPath}, func(sz sizes) func() {
		c, pl := paperChainPlatform(15)
		return func() {
			_, ev, err := dp.OptimizeReliability(c, pl)
			if err != nil {
				panic(err)
			}
			sink += ev.LogRel
		}
	}},
	{"evaluate-mapping", []string{tagHotPath}, func(sz sizes) func() {
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
			Name: b.name, Tags: b.tags, NsPerOp: ns, Iterations: iters,
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
	// The incremental evaluator's advantage over the full-eval oracle:
	// same run, same single-threaded pinned instance, so the ratio is
	// machine-class independent and -minratio can gate it hard.
	if d, okD := byName["search-optimize-delta"]; okD && d > 0 {
		if fl, okF := byName["search-optimize-full"]; okF {
			f.Speedups["search-optimize-delta"] = fl / d
			fmt.Printf("speedup %-16s %.2fx (incremental vs full evaluation)\n",
				"search-optimize-delta", fl/d)
		}
	}
	// The flat-array Monte-Carlo engine's advantage over the scalar
	// reference oracle: same batch, single-threaded, same run, so this
	// ratio too is machine-class independent and -minratio can gate it
	// hard.
	if soa, okS := byName["monte-carlo-soa"]; okS && soa > 0 {
		if sc, okC := byName["monte-carlo-scalar"]; okC {
			f.Speedups["monte-carlo-soa"] = sc / soa
			fmt.Printf("speedup %-16s %.2fx (flat-array vs scalar engine)\n",
				"monte-carlo-soa", sc/soa)
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

// calibration returns the run's calibrate ns/op, or 0 when absent.
func calibration(f File) float64 {
	for _, e := range f.Benchmarks {
		if e.Name == "calibrate" && e.NsPerOp > 0 {
			return e.NsPerOp
		}
	}
	return 0
}

// calibrationPair resolves the normalization divisors for a comparison.
// Normalization is only meaningful when *both* runs carry a calibrate
// entry: with exactly one present, dividing one side by ~3e7 ns and the
// other by 1 would skew every ratio by orders of magnitude, so the pair
// degrades to un-normalized (1, 1) with a warning instead.
func calibrationPair(baseline, current File, out *os.File) (calB, calC float64) {
	calB, calC = calibration(baseline), calibration(current)
	if calB > 0 && calC > 0 {
		return calB, calC
	}
	if calB > 0 || calC > 0 {
		fmt.Fprintln(out, "WARNING: calibrate entry missing from one run; comparing raw ns/op without normalization")
	}
	return 1, 1
}

// isParallel reports whether a benchmark name runs sharded at degree
// > 1 (a "/P=N" suffix with N > 1): its ns/op scales with the core
// count, so it is only comparable between machines with equal
// GOMAXPROCS.
func isParallel(name string) bool {
	i := strings.LastIndex(name, "/P=")
	if i < 0 {
		return false
	}
	n, err := strconv.Atoi(name[i+len("/P="):])
	return err == nil && n > 1
}

// check compares current against baseline: every hot-path benchmark of
// the baseline must be present in the current run (a missing or renamed
// kernel counts as a failure, so the gate cannot be silently emptied)
// and must not regress by more than threshold on its
// calibration-normalized ns/op. The single-threaded calibration kernel
// cannot cancel core-count differences, so when the two runs'
// GOMAXPROCS differ — the detectable signal that the baseline is from a
// different machine class — parallel (P>1) entries are skipped and the
// remaining findings are reported as advisory only (exit 0): the
// calibration transfer is only trusted within a machine class, and a
// hard gate across classes would fail innocent PRs. Regenerate the
// baseline on the CI runner class to arm the hard gate; the parallel
// kernels are meanwhile gated directly by -minratio on the runner.
// allocsPerOp is additionally gated at allocThreshold (relative, like
// threshold) when both runs carry alloc data; baselines written before
// the alloc gate existed carry none and are skipped. Alloc findings
// follow the same advisory downgrade as ns/op findings across machine
// classes. Returns the number of enforced failures.
func check(baseline, current File, threshold, allocThreshold float64, out *os.File) int {
	n, _ := checkRows(baseline, current, threshold, allocThreshold, out)
	return n
}

// summaryRow is one kernel's comparison, kept for the -summary
// markdown rendering alongside check's plain-text report.
type summaryRow struct {
	name                  string
	status                string // ok / REGRESSION / ALLOC-REG / SKIP / MISSING
	baseNs, curNs         float64
	nsRatio               float64 // calibration-normalized; 0 when not compared
	baseAllocs, curAllocs float64
	allocRatio            float64 // 0 when the alloc gate was skipped
	advisory              bool
}

// checkRows is check plus the per-kernel rows the -summary table
// renders.
func checkRows(baseline, current File, threshold, allocThreshold float64, out *os.File) (int, []summaryRow) {
	calB, calC := calibrationPair(baseline, current, out)
	fmt.Fprintf(out, "baseline: %s/%s GOMAXPROCS=%d %s\n",
		baseline.GoOS, baseline.GoArch, baseline.GoMaxProcs, baseline.GoVersion)
	fmt.Fprintf(out, "current:  %s/%s GOMAXPROCS=%d %s\n",
		current.GoOS, current.GoArch, current.GoMaxProcs, current.GoVersion)
	if baseline.Quick != current.Quick {
		fmt.Fprintln(out, "WARNING: comparing a -quick run against a full run; numbers are not comparable")
	}
	coresDiffer := baseline.GoMaxProcs != current.GoMaxProcs
	if coresDiffer {
		fmt.Fprintf(out, "WARNING: GOMAXPROCS differs (%d vs %d) — baseline is from another machine class; parallel (P>1) benchmarks are skipped and sequential findings are ADVISORY (non-failing). Regenerate BENCH_baseline.json on this machine class to arm the hard gate.\n",
			baseline.GoMaxProcs, current.GoMaxProcs)
	}
	cur := map[string]Entry{}
	for _, e := range current.Benchmarks {
		cur[e.Name] = e
	}
	var rows []summaryRow
	failures, missing := 0, 0
	for _, base := range baseline.Benchmarks {
		if !slices.Contains(base.Tags, tagHotPath) {
			continue
		}
		row := summaryRow{name: base.Name, baseNs: base.NsPerOp, baseAllocs: base.AllocsPerOp, advisory: coresDiffer}
		e, ok := cur[base.Name]
		if !ok {
			// Machine-class independent: a renamed or deleted kernel
			// must fail even in advisory mode, or the gate could be
			// silently emptied.
			fmt.Fprintf(out, "MISSING    %-24s baseline kernel absent from current run\n", base.Name)
			missing++
			row.status, row.advisory = "MISSING", false
			rows = append(rows, row)
			continue
		}
		row.curNs, row.curAllocs = e.NsPerOp, e.AllocsPerOp
		if coresDiffer && isParallel(base.Name) {
			fmt.Fprintf(out, "SKIP       %-24s parallel benchmark, core counts differ\n", base.Name)
			row.status = "SKIP"
			rows = append(rows, row)
			continue
		}
		ratio := (e.NsPerOp / calC) / (base.NsPerOp / calB)
		row.nsRatio = ratio
		status := "ok"
		if ratio > 1+threshold {
			status = "REGRESSION"
			failures++
		}
		row.status = status
		fmt.Fprintf(out, "%-10s %-24s %12.0f -> %12.0f ns/op  normalized %.2fx\n",
			status, base.Name, base.NsPerOp, e.NsPerOp, ratio)
		if base.AllocsPerOp > 0 && e.AllocsPerOp > 0 {
			aratio := e.AllocsPerOp / base.AllocsPerOp
			row.allocRatio = aratio
			astatus := "ok"
			if aratio > 1+allocThreshold {
				astatus = "ALLOC-REG"
				failures++
				if row.status == "ok" {
					row.status = "ALLOC-REG"
				}
			}
			fmt.Fprintf(out, "%-10s %-24s %12.0f -> %12.0f allocs/op  %.2fx\n",
				astatus, base.Name, base.AllocsPerOp, e.AllocsPerOp, aratio)
		}
		rows = append(rows, row)
	}
	if coresDiffer && failures > 0 {
		fmt.Fprintf(out, "ADVISORY: %d regression finding(s) not enforced across machine classes\n", failures)
		failures = 0
	}
	return failures + missing, rows
}

// writeSummary appends a GitHub-flavored markdown table of the -check
// comparison to path (typically $GITHUB_STEP_SUMMARY), so a flagged
// regression is readable from the job page without downloading
// artifacts. Advisory rows — findings not enforced because the baseline
// came from another machine class — are marked as such.
func writeSummary(path string, baseline, current File, rows []summaryRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark gate: baseline vs PR\n\n")
	fmt.Fprintf(&b, "Baseline: `%s/%s` GOMAXPROCS=%d %s — PR: `%s/%s` GOMAXPROCS=%d %s\n\n",
		baseline.GoOS, baseline.GoArch, baseline.GoMaxProcs, baseline.GoVersion,
		current.GoOS, current.GoArch, current.GoMaxProcs, current.GoVersion)
	advisory := false
	b.WriteString("| Kernel | ns/op (base → PR) | Δ ns/op | allocs/op (base → PR) | Δ allocs | Status |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		ns := fmt.Sprintf("%.0f → %.0f", r.baseNs, r.curNs)
		dNs, dAllocs, allocs := "–", "–", "–"
		if r.nsRatio > 0 {
			dNs = fmt.Sprintf("%+.1f%%", (r.nsRatio-1)*100)
		}
		if r.baseAllocs > 0 && r.curAllocs > 0 {
			allocs = fmt.Sprintf("%.0f → %.0f", r.baseAllocs, r.curAllocs)
		}
		if r.allocRatio > 0 {
			dAllocs = fmt.Sprintf("%+.1f%%", (r.allocRatio-1)*100)
		}
		status := map[string]string{
			"ok": "✅ ok", "REGRESSION": "❌ regression", "ALLOC-REG": "❌ alloc regression",
			"SKIP": "⏭️ skipped (machine class)", "MISSING": "❌ missing kernel",
		}[r.status]
		if r.advisory && (r.status == "REGRESSION" || r.status == "ALLOC-REG") {
			status += " (advisory)"
			advisory = true
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", r.name, ns, dNs, allocs, dAllocs, status)
	}
	if advisory {
		b.WriteString("\nAdvisory rows are not enforced: the baseline's machine class (GOMAXPROCS) differs from the runner's, so calibration does not transfer. Regenerate `BENCH_baseline.json` on the runner class to arm the hard gate.\n")
	}
	b.WriteString("\nΔ ns/op is calibration-normalized (see `cmd/bench`).\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(b.String())
	return err
}

// parallelRatios are the kernels whose Speedups entry is the P=8/P=1
// ratio, which cannot appear on fewer than 4 cores.
var parallelRatios = []string{"exact-profiles", "monte-carlo", "frontier", "search-optimize", "adapt-remap"}

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

func main() {
	quick := flag.Bool("quick", false, "reduced workloads (the CI gate's configuration)")
	out := flag.String("o", "", "write results as JSON to this file")
	minRatios := ratioFloors{}
	flag.Var(minRatios, "minratio",
		"kernel=floor: fail when that speedup ratio is below floor or missing (repeatable; P=8/P=1 ratios skip below 4 cores)")
	summaryPath := flag.String("summary", "",
		"with -check: append a markdown comparison table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	doCheck := flag.Bool("check", false, "compare -current against -baseline instead of running")
	basePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON for -check")
	curPath := flag.String("current", "BENCH_pr.json", "current JSON for -check")
	threshold := flag.Float64("threshold", 0.20, "allowed relative ns/op regression for -check")
	allocThreshold := flag.Float64("allocthreshold", 0.20, "allowed relative allocs/op regression for -check")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	flag.Parse()

	if *doCheck {
		baseline, err := loadFile(*basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		current, err := loadFile(*curPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		n, rows := checkRows(baseline, current, *threshold, *allocThreshold, os.Stdout)
		if *summaryPath != "" {
			if err := writeSummary(*summaryPath, baseline, current, rows); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d hot-path regression(s) beyond the thresholds\n", n)
			os.Exit(1)
		}
		return
	}

	// Profiles are stopped/written explicitly (not deferred) because the
	// failure paths below leave through os.Exit, which skips defers.
	var cpuFile *os.File
	if *cpuProfile != "" {
		var err error
		if cpuFile, err = os.Create(*cpuProfile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		mf.Close()
		fmt.Printf("wrote %s\n", *memProfile)
	}
	failures := checkRatios(f, minRatios, os.Stdout)
	if *out != "" {
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d ratio(s) below their -minratio floor\n", failures)
		os.Exit(1)
	}
}
