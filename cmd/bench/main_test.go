package main

import (
	"maps"
	"os"
	"strings"
	"testing"
)

func benchFile(cal, exact float64) File {
	return File{
		Quick:      true,
		GoMaxProcs: 1,
		Benchmarks: []Entry{
			{Name: "calibrate", NsPerOp: cal, Iterations: 1},
			{Name: "exact-profiles/P=1", Tags: []string{tagHotPath}, NsPerOp: exact, Iterations: 1},
		},
	}
}

func TestCheckPassesWithinThreshold(t *testing.T) {
	base := benchFile(100, 1000)
	cur := benchFile(100, 1100) // 10% slower, threshold 20%
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("regressions = %d, want 0", n)
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	base := benchFile(100, 1000)
	cur := benchFile(100, 1500) // 50% slower
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
}

// TestCheckNormalizesByCalibration: a uniformly slower machine (both the
// calibration kernel and the benchmark 3x slower) is not a regression.
func TestCheckNormalizesByCalibration(t *testing.T) {
	base := benchFile(100, 1000)
	cur := benchFile(300, 3000)
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("regressions = %d, want 0 after normalization", n)
	}
}

// TestCheckSkipsParallelAcrossCoreCounts: when GOMAXPROCS differs
// between runs, P>1 entries are neither gated (their ns/op scales with
// core count) nor silently passed — they are skipped with a notice —
// while single-threaded entries still gate.
func TestCheckSkipsParallelAcrossCoreCounts(t *testing.T) {
	mk := func(cores int, p1, p8 float64) File {
		return File{
			Quick:      true,
			GoMaxProcs: cores,
			Benchmarks: []Entry{
				{Name: "calibrate", NsPerOp: 100},
				{Name: "exact-profiles/P=1", Tags: []string{tagHotPath}, NsPerOp: p1},
				{Name: "exact-profiles/P=8", Tags: []string{tagHotPath}, NsPerOp: p8},
			},
		}
	}
	// Same core count: a P=8 regression is caught and enforced.
	if n := check(mk(4, 1000, 300), mk(4, 1000, 600), 0.20, 0.20, os.Stdout); n != 1 {
		t.Fatalf("same cores: failures = %d, want 1", n)
	}
	// Different core counts: the P=8 entry is skipped (a 4-core run is
	// "faster" than a 1-core baseline for free), and sequential findings
	// are advisory — reported but not enforced, because the calibration
	// transfer is only trusted within a machine class.
	if n := check(mk(1, 1000, 950), mk(4, 1000, 300), 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("different cores, clean: failures = %d, want 0", n)
	}
	if n := check(mk(1, 1000, 950), mk(4, 1600, 300), 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("different cores, advisory P=1 regression: failures = %d, want 0", n)
	}
}

func TestIsParallel(t *testing.T) {
	cases := map[string]bool{
		"exact-profiles/P=8": true,
		"monte-carlo/P=2":    true,
		"exact-profiles/P=1": false,
		"dp-reliability":     false,
		"calibrate":          false,
	}
	for name, want := range cases {
		if got := isParallel(name); got != want {
			t.Errorf("isParallel(%q) = %t, want %t", name, got, want)
		}
	}
}

// TestCheckFailsOnMissingBenchmarks: a renamed or deleted gated kernel
// counts as a failure — even across machine classes — so the gate
// cannot be silently emptied.
func TestCheckFailsOnMissingBenchmarks(t *testing.T) {
	base := benchFile(100, 1000)
	cur := File{Quick: true, GoMaxProcs: 1, Benchmarks: []Entry{{Name: "calibrate", NsPerOp: 100}}}
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 1 {
		t.Fatalf("failures = %d, want 1 (missing benchmark)", n)
	}
	cur.GoMaxProcs = 8 // different machine class: still enforced
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 1 {
		t.Fatalf("cross-class failures = %d, want 1 (missing benchmark)", n)
	}
}

// TestCheckCalibrationPairing: normalization only applies when both
// runs carry a calibrate entry; one-sided calibration degrades to raw
// comparison instead of skewing every ratio by orders of magnitude.
func TestCheckCalibrationPairing(t *testing.T) {
	base := benchFile(100, 1000)
	cur := File{Quick: true, GoMaxProcs: base.GoMaxProcs, Benchmarks: []Entry{
		{Name: "exact-profiles/P=1", Tags: []string{tagHotPath}, NsPerOp: 1050},
	}}
	// Raw 1050 vs 1000 is within 20%; with the old one-sided fallback
	// the ratio would have been (1050/1)/(1000/100) = 105x.
	if n := check(base, cur, 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("failures = %d, want 0 (one-sided calibrate must not skew)", n)
	}
}

// ciFloors are the ratio floors the CI bench job passes as -minratio.
var ciFloors = ratioFloors{
	"exact-profiles": 2.0, "monte-carlo": 2.0,
	"search-optimize-delta": 3.0, "monte-carlo-soa": 2.0,
}

// healthyRatios is a run in which every gated ratio clears its CI floor.
var healthyRatios = map[string]float64{
	"exact-profiles": 3.1, "monte-carlo": 2.4,
	"search-optimize-delta": 8.5, "monte-carlo-soa": 2.4,
}

// withRatio is healthyRatios with one kernel's ratio replaced.
func withRatio(kernel string, v float64) map[string]float64 {
	m := maps.Clone(healthyRatios)
	m[kernel] = v
	return m
}

// ratioCase is one checkRatios call: the run's core count and ratios,
// the floors, the failures it must count and a line its output must hold.
type ratioCase struct {
	name     string
	cores    int
	speedups map[string]float64
	floors   ratioFloors
	want     int
	notice   string
}

func runRatioCases(t *testing.T, cases []ratioCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			f := File{GoMaxProcs: tc.cores, Speedups: tc.speedups}
			if n := checkRatios(f, tc.floors, &out); n != tc.want {
				t.Fatalf("failures = %d, want %d\n%s", n, tc.want, out.String())
			}
			if !strings.Contains(out.String(), tc.notice) {
				t.Fatalf("output %q lacks %q", out.String(), tc.notice)
			}
		})
	}
}

// TestCheckRatios: with no floors nothing is checked, a healthy run
// passes every CI floor, and each listed ratio missing from the run
// fails, except a parallel one below 4 cores, which is skipped.
func TestCheckRatios(t *testing.T) {
	runRatioCases(t, []ratioCase{
		{"no floors", 8, withRatio("exact-profiles", 0.5), ratioFloors{}, 0, ""},
		{"healthy", 8, healthyRatios, ciFloors, 0, ""},
		{"missing on 8 cores", 8, map[string]float64{}, ciFloors, 4, "exact-profiles missing from this run"},
		{"missing on 1 core", 1, map[string]float64{}, ciFloors, 2, "monte-carlo-soa missing from this run"},
	})
}

// TestCheckSpeedups: the parallel (P=8/P=1) ratios fail below their
// floor on a multi-core run and are skipped with a notice below 4 cores,
// where the speedup cannot physically appear.
func TestCheckSpeedups(t *testing.T) {
	parallel := ratioFloors{"exact-profiles": 2.0, "monte-carlo": 2.0}
	runRatioCases(t, []ratioCase{
		{"healthy", 8, healthyRatios, parallel, 0, ""},
		{"parallel below floor", 8, withRatio("exact-profiles", 1.2), parallel, 1, "exact-profiles speedup 1.20x below floor 2.00x"},
		{"parallel skipped below 4 cores", 1, withRatio("monte-carlo", 1.0), parallel, 0, "monte-carlo skipped, GOMAXPROCS=1 < 4"},
		{"missing", 8, map[string]float64{}, parallel, 2, "monte-carlo missing from this run"},
	})
}

// TestCheckDeltaSpeedup: the delta-vs-full search ratio is measured in
// one process on one thread, so a single core does not skip it.
func TestCheckDeltaSpeedup(t *testing.T) {
	delta := ratioFloors{"search-optimize-delta": 3.0}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, delta, 0, ""},
		{"delta below floor", 8, withRatio("search-optimize-delta", 1.9), delta, 1, "search-optimize-delta speedup 1.90x below floor 3.00x"},
		{"delta enforced on 1 core", 1, withRatio("search-optimize-delta", 1.9), delta, 1, "search-optimize-delta speedup 1.90x"},
		{"missing", 1, map[string]float64{}, delta, 1, "search-optimize-delta missing from this run"},
	})
}

// TestCheckSoASpeedup: the flat-array-vs-scalar Monte-Carlo ratio
// follows the same contract as the delta ratio — enforced on any
// machine, and a missing ratio fails rather than silently passing.
func TestCheckSoASpeedup(t *testing.T) {
	soa := ratioFloors{"monte-carlo-soa": 2.0}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, soa, 0, ""},
		{"soa enforced on 1 core", 1, withRatio("monte-carlo-soa", 1.3), soa, 1, "monte-carlo-soa speedup 1.30x"},
		{"missing", 1, map[string]float64{}, soa, 1, "monte-carlo-soa missing from this run"},
	})
}

// TestRatioFloorsFlag: -minratio repeats, and a malformed or
// non-positive floor is rejected at parse time.
func TestRatioFloorsFlag(t *testing.T) {
	r := ratioFloors{}
	for _, arg := range []string{"monte-carlo-soa=2", "search-optimize-delta=3.0", "monte-carlo-soa=2.5"} {
		if err := r.Set(arg); err != nil {
			t.Fatalf("Set(%q): %v", arg, err)
		}
	}
	if got := r.String(); got != "monte-carlo-soa=2.5,search-optimize-delta=3" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"monte-carlo", "=2", "monte-carlo=x", "monte-carlo=0", "monte-carlo=-1"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// allocFile builds a single-kernel run with alloc data attached.
func allocFile(ns, allocs float64) File {
	return File{
		Quick:      true,
		GoMaxProcs: 1,
		Benchmarks: []Entry{
			{Name: "calibrate", NsPerOp: 100, Iterations: 1},
			{Name: "exact-profiles/P=1", Tags: []string{tagHotPath},
				NsPerOp: ns, Iterations: 1, AllocsPerOp: allocs, BytesPerOp: allocs * 64},
		},
	}
}

// TestCheckAllocGate: allocs/op regressions beyond the alloc threshold
// fail even when ns/op is steady, small drifts pass, and a baseline
// without alloc data (written before the gate existed) is skipped
// rather than failed.
func TestCheckAllocGate(t *testing.T) {
	base := allocFile(1000, 1000)
	if n := check(base, allocFile(1000, 1100), 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("10%% alloc drift: failures = %d, want 0", n)
	}
	if n := check(base, allocFile(1000, 1500), 0.20, 0.20, os.Stdout); n != 1 {
		t.Fatalf("50%% alloc regression: failures = %d, want 1", n)
	}
	// ns/op and allocs/op can fail independently and both count.
	if n := check(base, allocFile(2000, 1500), 0.20, 0.20, os.Stdout); n != 2 {
		t.Fatalf("double regression: failures = %d, want 2", n)
	}
	// Baseline without alloc data: the alloc gate is skipped.
	noAllocs := benchFile(100, 1000)
	if n := check(noAllocs, allocFile(1000, 99999), 0.20, 0.20, os.Stdout); n != 0 {
		t.Fatalf("no alloc baseline: failures = %d, want 0 (gate skipped)", n)
	}
}

// TestMeasureAllocs checks the ReadMemStats delta counter on a known
// allocation pattern.
func TestMeasureAllocs(t *testing.T) {
	var keep [][]byte
	allocs, bytes := measureAllocs(func() {
		for i := 0; i < 100; i++ {
			keep = append(keep, make([]byte, 1024))
		}
		keep = nil
	})
	if allocs < 100 {
		t.Fatalf("allocsPerOp = %g, want >= 100", allocs)
	}
	if bytes < 100*1024 {
		t.Fatalf("bytesPerOp = %g, want >= %d", bytes, 100*1024)
	}
}

// TestQuickRunSmoke runs the smallest real measurement end to end so the
// registry's setup closures stay exercised by `go test`.
func TestQuickRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick bench run takes a few seconds")
	}
	sz := quickSizes()
	sz.minTime = 1
	sz.repeats = 1
	for _, b := range benchmarks {
		ns, iters := measure(b.setup(sz), sz)
		if ns <= 0 || iters < 1 {
			t.Fatalf("%s: ns=%g iters=%d", b.name, ns, iters)
		}
	}
}

// TestWriteSummary renders the markdown table the CI bench job appends
// to $GITHUB_STEP_SUMMARY and checks the load-bearing pieces: one row
// per kernel, regression marking, and alloc columns degrading to "–"
// when a kernel has no alloc data.
func TestWriteSummary(t *testing.T) {
	base := benchFile(100, 1000)
	cur := benchFile(100, 1500)
	_, rows := checkRows(base, cur, 0.20, 0.20, os.Stdout)
	path := t.TempDir() + "/summary.md"
	if err := writeSummary(path, base, cur, rows); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(got)
	for _, want := range []string{
		"### Benchmark gate: baseline vs PR",
		"| `exact-profiles/P=1` |",
		"1000 → 1500",
		"❌", // the 50% regression must be visibly marked
		"–", // benchFile carries no alloc data
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	// writeSummary appends — a second call must not clobber the first.
	if err := writeSummary(path, base, cur, rows); err != nil {
		t.Fatal(err)
	}
	got2, _ := os.ReadFile(path)
	if len(got2) <= len(got) {
		t.Fatalf("second writeSummary did not append: %d -> %d bytes", len(got), len(got2))
	}
}
