package mapping

import (
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestUnroutedAtLimit: MaxUnroutedReplicas replicas are accepted (the
// rejections above it are tested through relpipe.UnroutedFailProb); a
// single stage fails iff every replica's computation fails.
func TestUnroutedAtLimit(t *testing.T) {
	procs := make([]int, MaxUnroutedReplicas)
	for i := range procs {
		procs[i] = i
	}
	pl := platform.Homogeneous(MaxUnroutedReplicas, 1, 1e-8, 1, 1e-5, MaxUnroutedReplicas)
	m := Mapping{Parts: interval.Partition{{First: 0, Last: 2}}, Procs: [][]int{procs}}
	sys, err := UnroutedFromMapping(testChain(), pl, m)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	for _, f := range sys.CompFail[0] {
		want *= f
	}
	if got := sys.FailProb(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("FailProb = %v, want %v", got, want)
	}
}

func BenchmarkStageSystemK3(b *testing.B) {
	r := rng.New(1)
	c := chain.PaperRandom(r, 15)
	pl := platform.PaperHomogeneous(15)
	parts := interval.FromEnds([]int{0, 1, 2, 3, 4})
	parts[4].Last = 14
	counts := []int{3, 3, 3, 3, 3}
	m := AssignSequential(parts, counts)
	sys, err := UnroutedFromMapping(c, pl, m)
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sys.FailProb()
	}
	_ = sink
}
