package reduction

import (
	"context"
	"testing"

	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
)

func TestTwoPartitionExistsBruteForce(t *testing.T) {
	cases := []struct {
		as   []float64
		want bool
	}{
		{[]float64{1, 1}, true},
		{[]float64{1, 2}, false},
		{[]float64{1, 1, 2}, true},
		{[]float64{1, 1, 4}, false},
		{[]float64{3, 1, 1, 2, 2, 1}, true},
		{[]float64{2, 2, 2}, false},
		{[]float64{1, 2, 3, 4}, true},
	}
	for _, c := range cases {
		if got := TwoPartitionExists(c.as); got != c.want {
			t.Errorf("TwoPartitionExists(%v) = %v, want %v", c.as, got, c.want)
		}
	}
}

func TestThreePartitionExistsBruteForce(t *testing.T) {
	cases := []struct {
		as   []float64
		want bool
	}{
		{[]float64{1, 1, 2, 1, 1, 2}, true},
		{[]float64{1, 1, 1, 1, 1, 3}, false},
		{[]float64{2, 2, 2}, true},
		{[]float64{1, 2, 3, 1, 2, 3, 1, 2, 3}, true},
		{[]float64{5, 5, 5, 1, 1, 1}, false},
		{[]float64{1, 1}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := ThreePartitionExists(c.as); got != c.want {
			t.Errorf("ThreePartitionExists(%v) = %v, want %v", c.as, got, c.want)
		}
	}
}

func TestFromTwoPartitionValidation(t *testing.T) {
	if _, err := FromTwoPartition([]float64{1}); err == nil {
		t.Fatal("accepted a single number")
	}
	if _, err := FromTwoPartition([]float64{1, -1}); err == nil {
		t.Fatal("accepted a negative number")
	}
}

func TestFromTwoPartitionStructure(t *testing.T) {
	g, err := FromTwoPartition([]float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Chain.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Chain) != 3*3+1 {
		t.Fatalf("chain has %d tasks, want 10", len(g.Chain))
	}
	if g.Platform.P() != 6*3 {
		t.Fatalf("platform has %d processors, want 18", g.Platform.P())
	}
	if g.Platform.MaxReplicas != 2 {
		t.Fatalf("K = %d, want 2", g.Platform.MaxReplicas)
	}
	if err := g.Platform.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem3GadgetForward verifies the §5.3 reduction end to end on
// small inputs: the gadget instance admits a mapping meeting both the
// latency bound and the reliability threshold exactly when the source
// 2-PARTITION instance is solvable. The exact solver plays the role of
// the NP oracle.
func TestTheorem3GadgetForward(t *testing.T) {
	cases := [][]float64{
		{1, 1},       // yes: {1} | {1}
		{1, 2},       // no: sum odd
		{1, 1, 2},    // yes: {1,1} | {2}
		{1, 1, 4},    // no
		{2, 1, 1, 2}, // yes: {2,1} | {1,2}
	}
	for _, as := range cases {
		want := TwoPartitionExists(as)
		g, err := FromTwoPartition(as)
		if err != nil {
			t.Fatal(err)
		}
		_, ev, err := exact.OptimalPar(context.Background(), g.Chain, g.Platform, 0, g.Latency, 1)
		if err != nil {
			t.Fatalf("%v: exact solver failed: %v", as, err)
		}
		got := ev.LogRel >= g.MinLogRel
		if got != want {
			t.Errorf("gadget(%v): mapping meets threshold = %v, want %v (logRel=%v threshold=%v)",
				as, got, want, ev.LogRel, g.MinLogRel)
		}
	}
}

func TestFromThreePartitionValidation(t *testing.T) {
	if _, err := FromThreePartition([]float64{1, 2}); err == nil {
		t.Fatal("accepted 2 numbers")
	}
	if _, err := FromThreePartition([]float64{1, 2, -3}); err == nil {
		t.Fatal("accepted a negative number")
	}
}

func TestFromThreePartitionStructure(t *testing.T) {
	g, err := FromThreePartition([]float64{1, 1, 2, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Chain.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Chain) != 2 || g.Platform.P() != 6 {
		t.Fatalf("gadget size %d tasks / %d procs, want 2/6", len(g.Chain), g.Platform.P())
	}
	if g.Platform.Homogeneous() {
		t.Fatal("3-partition gadget must be heterogeneous")
	}
	if g.Platform.MaxReplicas != 3 {
		t.Fatalf("K = %d, want 3", g.Platform.MaxReplicas)
	}
}

// TestTheorem5GadgetForward verifies the §6 reduction end to end: the
// heterogeneous gadget admits a mapping meeting the reliability
// threshold exactly when the source 3-PARTITION instance is solvable.
func TestTheorem5GadgetForward(t *testing.T) {
	cases := [][]float64{
		{1, 1, 2, 1, 1, 2}, // yes: {1,1,2} twice (T=4)
		{1, 1, 1, 1, 1, 3}, // no (T=4; triples sum to 3 or 5)
		{3, 3, 3, 3, 3, 3}, // yes (T=9)
		{2, 2, 2, 4, 4, 4}, // no (T=9 odd, all elements even)
	}
	for _, as := range cases {
		want := ThreePartitionExists(as)
		g, err := FromThreePartition(as)
		if err != nil {
			t.Fatal(err)
		}
		_, ev, err := exactref.OptimalHetPar(context.Background(), g.Chain, g.Platform, 0, 0, 1)
		if err != nil {
			t.Fatalf("%v: OptimalHet failed: %v", as, err)
		}
		got := ev.LogRel >= g.MinLogRel
		if got != want {
			t.Errorf("gadget(%v): meets threshold = %v, want %v (logRel=%v threshold=%v)",
				as, got, want, ev.LogRel, g.MinLogRel)
		}
	}
}
