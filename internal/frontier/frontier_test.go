package frontier

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func TestComputeSortedAndNonDominated(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 2+r.IntN(8))
		pl := homPl(2 + r.IntN(7))
		pts, err := Compute(context.Background(), c, pl, 1, nil)
		if err != nil || len(pts) == 0 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			a, b := pts[i-1], pts[i]
			if b.Period < a.Period {
				return false // not sorted
			}
		}
		// Pairwise non-domination.
		for i, a := range pts {
			for j, b := range pts {
				if i == j {
					continue
				}
				if b.Period <= a.Period && b.Latency <= a.Latency && b.LogRel >= a.LogRel &&
					(b.Period < a.Period || b.Latency < a.Latency || b.LogRel > a.LogRel) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPointsMaterialize(t *testing.T) {
	r := rng.New(3)
	c := chain.PaperRandom(r, 7)
	pl := homPl(6)
	pts, err := Compute(context.Background(), c, pl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		ev, err := mapping.Evaluate(c, pl, p.Mapping())
		if err != nil {
			t.Fatalf("materialized mapping invalid: %v", err)
		}
		if math.Abs(ev.WorstPeriod-p.Period) > 1e-9 ||
			math.Abs(ev.WorstLatency-p.Latency) > 1e-9 ||
			math.Abs(ev.LogRel-p.LogRel) > 1e-12*(1+math.Abs(p.LogRel)) {
			t.Fatalf("point does not match its materialized mapping: %+v vs %v", p, ev)
		}
	}
}

func TestFrontierAnswersMatchExact(t *testing.T) {
	// The best frontier point under any bounds must equal the exact
	// solver's answer.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 2+r.IntN(7))
		pl := homPl(2 + r.IntN(6))
		pts, err := Compute(context.Background(), c, pl, 1, nil)
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			P := r.Uniform(20, 500)
			L := r.Uniform(50, 1500)
			best := math.Inf(-1)
			for _, p := range pts {
				if p.Period <= P && p.Latency <= L && p.LogRel > best {
					best = p.LogRel
				}
			}
			_, ev, errE := exact.OptimalPar(context.Background(), c, pl, P, L, 1)
			if errE != nil {
				if !math.IsInf(best, -1) {
					return false
				}
				continue
			}
			if math.Abs(ev.LogRel-best) > 1e-9*(1+math.Abs(best)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodReliabilityStrictlyImproving(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 8)
	pl := homPl(8)
	pts, err := Compute(context.Background(), c, pl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj := PeriodReliability(pts)
	if len(proj) == 0 {
		t.Fatal("empty projection")
	}
	for i := 1; i < len(proj); i++ {
		if proj[i].Period <= proj[i-1].Period {
			t.Fatalf("period not strictly increasing at %d", i)
		}
		if proj[i].LogRel <= proj[i-1].LogRel {
			t.Fatalf("reliability not strictly improving at %d", i)
		}
	}
}

func TestLatencyReliabilityStrictlyImproving(t *testing.T) {
	r := rng.New(7)
	c := chain.PaperRandom(r, 8)
	pl := homPl(8)
	pts, err := Compute(context.Background(), c, pl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj := LatencyReliability(pts)
	for i := 1; i < len(proj); i++ {
		if proj[i].Latency <= proj[i-1].Latency || proj[i].LogRel <= proj[i-1].LogRel {
			t.Fatalf("latency projection not a strict staircase at %d", i)
		}
	}
}

func TestPeriodLatencyFloor(t *testing.T) {
	r := rng.New(9)
	c := chain.PaperRandom(r, 8)
	pl := homPl(8)
	pts, err := Compute(context.Background(), c, pl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained floor keeps a non-trivial staircase.
	all := PeriodLatency(pts, math.Inf(-1))
	for i := 1; i < len(all); i++ {
		if all[i].Period <= all[i-1].Period || all[i].Latency >= all[i-1].Latency {
			t.Fatalf("period/latency staircase violated at %d", i)
		}
	}
	// A reliability floor can only shrink the eligible set.
	strict := PeriodLatency(pts, pts[0].LogRel)
	if len(strict) > len(all) {
		t.Fatal("floor enlarged the frontier")
	}
	for _, p := range strict {
		if p.LogRel < pts[0].LogRel {
			t.Fatal("floored frontier contains point below the floor")
		}
	}
}

func TestProjectEmpty(t *testing.T) {
	if PeriodReliability(nil) != nil {
		t.Fatal("projection of nil not nil")
	}
}

func TestWriteCSV(t *testing.T) {
	pts := []Point{{Period: 1, Latency: 2, FailProb: 0.5, Ends: []int{0}}}
	var sb strings.Builder
	if err := WriteCSV(pts, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1,2,0.5,1") {
		t.Fatalf("CSV = %q", sb.String())
	}
}

func TestHeterogeneousRejected(t *testing.T) {
	pl := homPl(3)
	pl.Procs[0].Speed = 2
	if _, err := Compute(context.Background(), chain.Chain{{Work: 1, Out: 0}}, pl, 1, nil); err == nil {
		t.Fatal("Compute accepted heterogeneous platform")
	}
}
