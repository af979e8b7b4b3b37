package expfig

import (
	"math"
	"strings"
	"testing"
)

// small returns a reduced configuration that keeps tests fast while
// preserving the qualitative shapes.
func small() Config {
	return Config{Instances: 12, Tasks: 15, Procs: 10, Seed: 42, Step: 4}
}

func TestFig6ShapeAndDominance(t *testing.T) {
	f6, f7 := Fig6and7(small())
	if f6.ID != "fig06" || f7.ID != "fig07" {
		t.Fatalf("ids = %s/%s", f6.ID, f7.ID)
	}
	if len(f6.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f6.Series))
	}
	ilp, hl, hp := f6.Series[0], f6.Series[1], f6.Series[2]
	n := len(ilp.X)
	for i := 0; i < n; i++ {
		// The optimum dominates both heuristics everywhere.
		if ilp.Y[i] < hl.Y[i]-1e-9 || ilp.Y[i] < hp.Y[i]-1e-9 {
			t.Fatalf("ILP count %v below a heuristic (%v, %v) at P=%v",
				ilp.Y[i], hl.Y[i], hp.Y[i], ilp.X[i])
		}
		// ILP solution counts are monotone in the period bound
		// (latency fixed, feasible sets nest).
		if i > 0 && ilp.Y[i] < ilp.Y[i-1]-1e-9 {
			t.Fatalf("ILP count not monotone at P=%v", ilp.X[i])
		}
	}
	// At generous periods some instances are solvable.
	if ilp.Y[n-1] == 0 {
		t.Fatal("no instance solvable even at P=500")
	}
	// Heur-P must track the optimum closely in the mid range
	// (the paper's headline observation).
	mid := n / 2
	if hp.Y[mid] < ilp.Y[mid]-float64(small().Instances)/3 {
		t.Fatalf("Heur-P count %v far below ILP %v at P=%v", hp.Y[mid], ilp.Y[mid], ilp.X[mid])
	}
}

func TestFig7FailureOrdering(t *testing.T) {
	_, f7 := Fig6and7(small())
	ilp, hl, hp := f7.Series[0], f7.Series[1], f7.Series[2]
	// Wherever defined: optimal failure <= each heuristic's failure;
	// Heur-P hugs the ILP curve on the log scale (within two decades,
	// the paper's Fig. 7 spans six); Heur-L falls orders of magnitude
	// behind somewhere in the constrained region.
	defined := 0
	hpClose := 0
	hlFarWorse := false
	for i := range ilp.Y {
		if math.IsNaN(ilp.Y[i]) {
			continue
		}
		defined++
		if ilp.Y[i] > hl.Y[i]+1e-15 || ilp.Y[i] > hp.Y[i]+1e-15 {
			t.Fatalf("optimal failure above heuristic at x=%v: %v vs %v/%v",
				ilp.X[i], ilp.Y[i], hl.Y[i], hp.Y[i])
		}
		if hp.Y[i] <= ilp.Y[i]*100 {
			hpClose++
		}
		if hl.Y[i] > hp.Y[i]*100 {
			hlFarWorse = true
		}
	}
	if defined == 0 {
		t.Fatal("failure curves entirely undefined")
	}
	if hpClose*10 < defined*8 {
		t.Fatalf("Heur-P within two decades of optimal on only %d/%d points", hpClose, defined)
	}
	if !hlFarWorse {
		t.Fatal("Heur-L never falls far behind Heur-P; expected the paper's gap")
	}
}

func TestFig8LatencySweepShape(t *testing.T) {
	f8, f9 := Fig8and9(small())
	ilp := f8.Series[0]
	for i := 1; i < len(ilp.Y); i++ {
		if ilp.Y[i] < ilp.Y[i-1]-1e-9 {
			t.Fatalf("ILP count not monotone in latency at L=%v", ilp.X[i])
		}
	}
	if f9.YLog != true {
		t.Fatal("failure figure must be log-scaled")
	}
}

func TestFig10LinkedBounds(t *testing.T) {
	f10, _ := Fig10and11(small())
	// With L = 3P nearly every solvable instance is found by both
	// heuristics (paper, §8.1): at the largest period the heuristic
	// curves sit near the ILP curve.
	n := len(f10.Series[0].Y)
	ilpEnd := f10.Series[0].Y[n-1]
	hpEnd := f10.Series[2].Y[n-1]
	if ilpEnd == 0 {
		t.Fatal("nothing solvable in the L=3P sweep")
	}
	if hpEnd < ilpEnd*0.5 {
		t.Fatalf("Heur-P solves %v of %v at the loosest bound", hpEnd, ilpEnd)
	}
}

func TestFig12HetBeatsSlowHom(t *testing.T) {
	f12, f13 := Fig12and13(small())
	if len(f12.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(f12.Series))
	}
	// Aggregate counts: heterogeneous platforms (speeds up to 100) must
	// solve more than the speed-5 homogeneous ones (paper, Fig. 12).
	sum := func(s Series) float64 {
		t := 0.0
		for _, v := range s.Y {
			t += v
		}
		return t
	}
	hetTotal := sum(f12.Series[0]) + sum(f12.Series[1])
	homTotal := sum(f12.Series[2]) + sum(f12.Series[3])
	if hetTotal <= homTotal {
		t.Fatalf("het total %v <= hom total %v", hetTotal, homTotal)
	}
	if f13.ID != "fig13" {
		t.Fatalf("id = %s", f13.ID)
	}
}

func TestFig14LatencyHet(t *testing.T) {
	f14, _ := Fig14and15(small())
	// At any given latency bound, het should solve at least as many
	// instances in aggregate.
	sum := func(s Series) float64 {
		t := 0.0
		for _, v := range s.Y {
			t += v
		}
		return t
	}
	if sum(f14.Series[1]) < sum(f14.Series[3]) {
		t.Fatalf("Heur-P het %v < hom %v", sum(f14.Series[1]), sum(f14.Series[3]))
	}
}

func TestAllProducesTenFigures(t *testing.T) {
	cfg := Config{Instances: 4, Tasks: 8, Procs: 6, Seed: 9, Step: 8}
	var figs []Figure
	for _, pair := range []func(Config) (Figure, Figure){Fig6and7, Fig8and9, Fig10and11, Fig12and13, Fig14and15} {
		a, b := pair(cfg)
		figs = append(figs, a, b)
	}
	wantIDs := []string{"fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}
	for i, f := range figs {
		if f.ID != wantIDs[i] {
			t.Fatalf("figure %d id = %s, want %s", i, f.ID, wantIDs[i])
		}
		if len(f.Series) == 0 {
			t.Fatalf("figure %s has no series", f.ID)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := Config{Instances: 5, Tasks: 8, Procs: 6, Seed: 33, Step: 8}
	a, _ := Fig6and7(cfg)
	b, _ := Fig6and7(cfg)
	for s := range a.Series {
		for i := range a.Series[s].Y {
			if a.Series[s].Y[i] != b.Series[s].Y[i] {
				t.Fatal("same seed produced different figures")
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f := Figure{
		ID: "figXX", Title: "test", XLabel: "x",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{5, 6}},
		},
	}
	var sb strings.Builder
	if err := WriteCSV(f, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# figXX: test", "x,a,b", "1,3,5", "2,4,6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Instances != 100 || c.Tasks != 15 || c.Procs != 10 || c.Seed != 1 || c.Step != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}
