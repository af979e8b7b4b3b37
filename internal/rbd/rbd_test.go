package rbd

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSPLeaf(t *testing.T) {
	n := NewBlock("x", 0.3)
	if n.FailProb() != 0.3 {
		t.Fatalf("leaf fail = %v", n.FailProb())
	}
	if n.Size() != 1 {
		t.Fatalf("Size = %d", n.Size())
	}
}

func TestSPSeriesParallelHandComputed(t *testing.T) {
	// Two parallel branches of 0.1, in series with a 0.2 block:
	// fail = 1 - (1-0.01)(1-0.2) = 0.2079...
	n := Series(Parallel(NewBlock("a", 0.1), NewBlock("b", 0.1)), NewBlock("c", 0.2))
	want := 1 - (1-0.1*0.1)*(1-0.2)
	if !almostEq(n.FailProb(), want, 1e-12) {
		t.Fatalf("FailProb = %v, want %v", n.FailProb(), want)
	}
	if n.Size() != 3 {
		t.Fatalf("Size = %d", n.Size())
	}
}

// randomSP builds a random SP tree with the given block budget.
func randomSP(r *rng.Rand, blocks int) *Node {
	if blocks <= 1 {
		return NewBlock("b", r.Float64())
	}
	split := 1 + r.IntN(blocks-1)
	left := randomSP(r, split)
	right := randomSP(r, blocks-split)
	if r.Bernoulli(0.5) {
		return Series(left, right)
	}
	return Parallel(left, right)
}

func TestSPMatchesExhaustive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := randomSP(r, 2+r.IntN(9))
		sys := SPSystem(n)
		exact, err := sys.ExactFail()
		if err != nil {
			return false
		}
		return almostEq(n.FailProb(), exact, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func testMapping() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 10, Out: 2}, {Work: 5, Out: 3}, {Work: 7, Out: 0}}
	pl := platform.Homogeneous(5, 1, 5e-2, 1, 2e-2, 3)
	m := mapping.Mapping{
		Parts: interval.Partition{{First: 0, Last: 1}, {First: 2, Last: 2}},
		Procs: [][]int{{0, 1}, {2, 3}},
	}
	return c, pl, m
}

func TestRoutedMatchesEq9(t *testing.T) {
	c, pl, m := testMapping()
	tree := Routed(c, pl, m)
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(tree.FailProb()) != math.Float64bits(ev.FailProb) {
		t.Fatalf("Routed RBD fail %v != Eq.(9) %v", tree.FailProb(), ev.FailProb)
	}
}

func TestRoutedMatchesEq9Random(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(6)
		c := chain.PaperRandom(r, n)
		pl := platform.RandomHeterogeneous(r, 8, 1, 10, 1e-4, 1e-1, 1, 1e-3, 3)
		m := 1 + r.IntN(minInt(n, 4))
		var parts interval.Partition
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.5)
		})
		// Hand out 2 processors per interval where possible.
		counts := make([]int, m)
		used := 0
		for j := range counts {
			counts[j] = 1
			used++
		}
		for j := range counts {
			if used < pl.P() && counts[j] < pl.MaxReplicas {
				counts[j]++
				used++
			}
		}
		mp := mapping.AssignSequential(parts, counts)
		ev, err := mapping.Evaluate(c, pl, mp)
		if err != nil {
			return false
		}
		return math.Float64bits(Routed(c, pl, mp).FailProb()) == math.Float64bits(ev.FailProb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutedSPMatchesExhaustive(t *testing.T) {
	c, pl, m := testMapping()
	tree := Routed(c, pl, m)
	sys := SPSystem(tree)
	exact, err := sys.ExactFail()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tree.FailProb(), exact, 1e-9) {
		t.Fatalf("SP eval %v != exhaustive %v", tree.FailProb(), exact)
	}
}

func TestStageSystemMatchesExhaustive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		// Small random stage systems: 2-3 stages, 1-2 replicas each so
		// block counts stay within the exhaustive evaluator's reach.
		nStages := 2 + r.IntN(2)
		sys := mapping.StageSystem{
			CompFail: make([][]float64, nStages),
			LinkFail: make([][][]float64, nStages-1),
		}
		for j := 0; j < nStages; j++ {
			k := 1 + r.IntN(2)
			sys.CompFail[j] = make([]float64, k)
			for i := range sys.CompFail[j] {
				sys.CompFail[j][i] = r.Float64()
			}
		}
		for j := 0; j < nStages-1; j++ {
			src, dst := len(sys.CompFail[j]), len(sys.CompFail[j+1])
			sys.LinkFail[j] = make([][]float64, src)
			for u := range sys.LinkFail[j] {
				sys.LinkFail[j][u] = make([]float64, dst)
				for v := range sys.LinkFail[j][u] {
					sys.LinkFail[j][u][v] = r.Float64()
				}
			}
		}
		exact, err := StageSystem(sys).ExactFail()
		if err != nil {
			return false
		}
		return almostEq(sys.FailProb(), exact, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnroutedFromMappingExhaustive(t *testing.T) {
	c, pl, m := testMapping()
	sys, err := mapping.UnroutedFromMapping(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := StageSystem(sys).ExactFail()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sys.FailProb(), exact, 1e-9) {
		t.Fatalf("subset DP %v != exhaustive %v", sys.FailProb(), exact)
	}
}

func TestUnroutedSingleHopBeatsRoutedDoubleHop(t *testing.T) {
	// With significant link failure rates, the unrouted diagram crosses
	// each boundary once while the routed one crosses twice; for equal
	// per-boundary parallelism the routed model cannot be more reliable
	// when replication is symmetric.
	c, pl, m := testMapping()
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mapping.UnroutedFromMapping(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	routed, unrouted := ev.FailProb, sys.FailProb()
	if unrouted > routed {
		t.Fatalf("unrouted fail %v > routed fail %v; expected routing overhead", unrouted, routed)
	}
}

func TestMinimalCutsSeriesParallel(t *testing.T) {
	// a in series with (b || c): minimal cuts are {a} and {b,c}.
	n := Series(NewBlock("a", 0.1), Parallel(NewBlock("b", 0.2), NewBlock("c", 0.3)))
	cuts, err := SPSystem(n).MinimalCuts()
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want 2 minimal cuts", cuts)
	}
	// Sorted by popcount: {0} first, then {1,2}.
	if len(cuts[0]) != 1 || cuts[0][0] != 0 {
		t.Fatalf("first cut = %v, want [0]", cuts[0])
	}
	if len(cuts[1]) != 2 || cuts[1][0] != 1 || cuts[1][1] != 2 {
		t.Fatalf("second cut = %v, want [1 2]", cuts[1])
	}
}

func TestCutSetExactForSeriesParallel(t *testing.T) {
	// For pure series systems the cut-set formula is exact.
	n := Series(NewBlock("a", 0.1), NewBlock("b", 0.2))
	sys := SPSystem(n)
	cuts, err := sys.MinimalCuts()
	if err != nil {
		t.Fatal(err)
	}
	approx := CutSetFail(cuts, sys.Fails)
	if !almostEq(approx, n.FailProb(), 1e-12) {
		t.Fatalf("cut-set %v != exact %v for a series system", approx, n.FailProb())
	}
}

func TestCutSetIsEsaryProschanBound(t *testing.T) {
	// For coherent systems, the cut-set approximation over-estimates the
	// failure probability.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := randomSP(r, 2+r.IntN(6))
		sys := SPSystem(n)
		cuts, err := sys.MinimalCuts()
		if err != nil {
			return false
		}
		approx := CutSetFail(cuts, sys.Fails)
		exact, err := sys.ExactFail()
		if err != nil {
			return false
		}
		return approx >= exact-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExactFailTooBig(t *testing.T) {
	sys := System{Fails: make([]float64, 25)}
	if _, err := sys.ExactFail(); err == nil {
		t.Fatal("ExactFail accepted 25 blocks")
	}
	if _, err := sys.MinimalCuts(); err == nil {
		t.Fatal("MinimalCuts accepted 25 blocks")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkRoutedEval(b *testing.B) {
	c, pl, m := testMapping()
	tree := Routed(c, pl, m)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tree.FailProb()
	}
	_ = sink
}
