package main

import (
	"maps"
	"os"
	"strings"
	"testing"
)

// allocFile is a -quick run of one kernel with the given allocs/op.
func allocFile(allocs float64) File {
	return File{
		Quick:      true,
		GoMaxProcs: 1,
		Benchmarks: []Entry{
			{Name: "exact-profiles/P=1", NsPerOp: 1000, Iterations: 1,
				AllocsPerOp: allocs, BytesPerOp: allocs * 64},
		},
	}
}

// runCheck is check for a pair of runs that must be comparable.
func runCheck(t *testing.T, base, cur File) int {
	t.Helper()
	n, _, err := check(base, cur, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCheckFailsOnMissingBenchmarks: a renamed or deleted kernel counts
// as a failure — whatever the core counts — so the gate cannot be
// silently emptied.
func TestCheckFailsOnMissingBenchmarks(t *testing.T) {
	base := allocFile(1000)
	cur := File{Quick: true, GoMaxProcs: 1}
	if n := runCheck(t, base, cur); n != 1 {
		t.Fatalf("failures = %d, want 1 (missing benchmark)", n)
	}
	cur.GoMaxProcs = 8
	if n := runCheck(t, base, cur); n != 1 {
		t.Fatalf("8-core failures = %d, want 1 (missing benchmark)", n)
	}
}

// ciFloors are the ratio floors the CI bench job passes as -minratio.
var ciFloors = ratioFloors{
	"exact-profiles": 2.0, "monte-carlo": 2.0,
	"search-optimize-delta": 3.0, "monte-carlo-soa": 3.7,
	"exact-profiles-table": 5.0, "pareto-filter": 10.0,
	"request-codec": 2.0,
}

// healthyRatios is a run in which every gated ratio clears its CI floor.
var healthyRatios = map[string]float64{
	"exact-profiles": 3.1, "monte-carlo": 2.4,
	"search-optimize-delta": 8.5, "monte-carlo-soa": 7.5,
	"exact-profiles-table": 19.0, "pareto-filter": 170.0,
	"request-codec": 2.8,
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
		{"missing on 8 cores", 8, map[string]float64{}, ciFloors, 7, "exact-profiles missing from this run"},
		{"missing on 1 core", 1, map[string]float64{}, ciFloors, 5, "exact-profiles-table missing from this run"},
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
	soa := ratioFloors{"monte-carlo-soa": ciFloors["monte-carlo-soa"]}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, soa, 0, ""},
		{"eager-injection ratio below floor", 1, withRatio("monte-carlo-soa", 2.1), soa, 1, "monte-carlo-soa speedup 2.10x below floor 3.70x"},
		{"soa enforced on 1 core", 1, withRatio("monte-carlo-soa", 1.3), soa, 1, "monte-carlo-soa speedup 1.30x"},
		{"missing", 1, map[string]float64{}, soa, 1, "monte-carlo-soa missing from this run"},
	})
}

// TestCheckTableSpeedup: the term-table-vs-reference exact enumeration
// ratio is single-threaded too, so it is enforced on any machine.
func TestCheckTableSpeedup(t *testing.T) {
	table := ratioFloors{"exact-profiles-table": 5.0}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, table, 0, ""},
		{"table enforced on 1 core", 1, withRatio("exact-profiles-table", 3.2), table, 1, "exact-profiles-table speedup 3.20x below floor 5.00x"},
		{"missing", 1, map[string]float64{}, table, 1, "exact-profiles-table missing from this run"},
	})
}

// TestCheckParetoSpeedup: the archive-vs-all-pairs dominance filter
// ratio is single-threaded as well, so it is enforced on any machine.
func TestCheckParetoSpeedup(t *testing.T) {
	pareto := ratioFloors{"pareto-filter": 10.0}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, pareto, 0, ""},
		{"filter enforced on 1 core", 1, withRatio("pareto-filter", 4.5), pareto, 1, "pareto-filter speedup 4.50x below floor 10.00x"},
		{"missing", 1, map[string]float64{}, pareto, 1, "pareto-filter missing from this run"},
	})
}

// TestCheckCodecSpeedup: the one-pass request codec against its
// encoding/json reference is single-threaded too, so it is enforced on
// any machine; a codec that always falls back reads about 1x.
func TestCheckCodecSpeedup(t *testing.T) {
	codec := ratioFloors{"request-codec": ciFloors["request-codec"]}
	runRatioCases(t, []ratioCase{
		{"healthy", 1, healthyRatios, codec, 0, ""},
		{"codec below floor", 1, withRatio("request-codec", 1.05), codec, 1, "request-codec speedup 1.05x below floor 2.00x"},
		{"missing", 1, map[string]float64{}, codec, 1, "request-codec missing from this run"},
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

// TestCheckAllocGate: allocs/op beyond the 20% bound fail, small drifts
// pass, ns/op is not compared at all, and a kernel at 0 allocs/op must
// stay at 0.
func TestCheckAllocGate(t *testing.T) {
	slower := allocFile(1000)
	slower.Benchmarks[0].NsPerOp *= 5
	for _, tc := range []struct {
		name      string
		base, cur File
		want      int
	}{
		{"10% drift", allocFile(1000), allocFile(1100), 0},
		{"50% rise", allocFile(1000), allocFile(1500), 1},
		{"5x ns/op, same allocs", allocFile(1000), slower, 0},
		{"zero stays zero", allocFile(0), allocFile(0), 0},
		{"zero baseline, one alloc", allocFile(0), allocFile(1), 1},
		{"fewer allocs", allocFile(1000), allocFile(10), 0},
	} {
		if n := runCheck(t, tc.base, tc.cur); n != tc.want {
			t.Errorf("%s: failures = %d, want %d", tc.name, n, tc.want)
		}
	}
}

// TestCheckAllocGateAcrossCoreCounts: allocation counts do not depend on
// the machine, so a baseline recorded at GOMAXPROCS=1 still gates a run
// at GOMAXPROCS=4.
func TestCheckAllocGateAcrossCoreCounts(t *testing.T) {
	cur := allocFile(1500)
	cur.GoMaxProcs = 4
	if n := runCheck(t, allocFile(1000), cur); n != 1 {
		t.Fatalf("50%% alloc rise across core counts: failures = %d, want 1", n)
	}
}

// TestCheckRejectsQuickVsFull: allocs/op scale with the workload sizes,
// so a -quick run and a full run are refused as a pair, either way round.
func TestCheckRejectsQuickVsFull(t *testing.T) {
	full := allocFile(1000)
	full.Quick = false
	for _, pair := range [][2]File{{allocFile(1000), full}, {full, allocFile(1000)}} {
		if _, _, err := check(pair[0], pair[1], os.Stdout); err == nil {
			t.Errorf("quick=%t vs quick=%t accepted", pair[0].Quick, pair[1].Quick)
		}
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
// per kernel, regression and missing-kernel marking, and the change
// column degrading to "–" for a kernel without a nonzero baseline.
func TestWriteSummary(t *testing.T) {
	base, cur := allocFile(1000), allocFile(1500)
	base.Benchmarks = append(base.Benchmarks, Entry{Name: "fleet-tick"}, Entry{Name: "cluster-route"})
	cur.Benchmarks = append(cur.Benchmarks, Entry{Name: "fleet-tick"})
	_, rows, err := check(base, cur, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
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
		"| `exact-profiles/P=1` | 1000.0 → 1500.0 | +50.0% | ❌ alloc regression |",
		"| `fleet-tick` | 0.0 → 0.0 | – | ✅ ok |",
		"| `cluster-route` | – | – | ❌ missing kernel |",
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
