package ilp

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	// Large rates keep the objective well-conditioned for the solver.
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func TestBuildPaperRejects(t *testing.T) {
	het := homPl(3)
	het.Procs[0].Speed = 2
	if _, err := BuildPaper(chain.Chain{{Work: 1, Out: 0}}, het, 0, 0); err == nil {
		t.Fatal("accepted heterogeneous platform")
	}
	if _, err := BuildPaper(chain.Chain{}, homPl(2), 0, 0); err == nil {
		t.Fatal("accepted empty chain")
	}
}

func TestBuildPaperPeriodFiltering(t *testing.T) {
	c := chain.Chain{{Work: 10, Out: 1}, {Work: 10, Out: 0}}
	pl := homPl(4)
	loose, err := BuildPaper(c, pl, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := BuildPaper(c, pl, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumVars() >= loose.NumVars() {
		t.Fatalf("period filter did not shrink the model: %d vs %d", tight.NumVars(), loose.NumVars())
	}
	// Period below every interval: no variables at all.
	if _, err := BuildPaper(c, pl, 5, 0); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestILPMatchesExact(t *testing.T) {
	// A3 ablation: branch-and-bound over the §5.4 model must agree with
	// the partition-enumeration optimum on random instances.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(6)
		c := chain.PaperRandom(r, n)
		pl := homPl(2 + r.IntN(5))
		var period, latency float64
		if r.Bernoulli(0.7) {
			period = r.Uniform(40, 400)
		}
		if r.Bernoulli(0.7) {
			latency = r.Uniform(100, 1200)
		}
		model, err := BuildPaper(c, pl, period, latency)
		if errors.Is(err, ErrInfeasible) {
			_, _, errE := exact.OptimalPar(context.Background(), c, pl, period, latency, 1)
			return errE != nil
		}
		if err != nil {
			return false
		}
		mi, evI, errI := model.Solve()
		_, evE, errE := exact.OptimalPar(context.Background(), c, pl, period, latency, 1)
		if (errI == nil) != (errE == nil) {
			return false
		}
		if errI != nil {
			return true
		}
		if mi.Validate(c, pl) != nil {
			return false
		}
		if period > 0 && evI.WorstPeriod > period+1e-9 {
			return false
		}
		if latency > 0 && evI.WorstLatency > latency+1e-9 {
			return false
		}
		return math.Abs(evI.LogRel-evE.LogRel) <= 1e-6*(1+math.Abs(evE.LogRel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestILPPaperScaleInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale ILP in -short mode")
	}
	r := rng.New(2024)
	c := chain.PaperRandom(r, 10)
	pl := homPl(8)
	model, err := BuildPaper(c, pl, 150, 700)
	if err != nil {
		t.Fatal(err)
	}
	m, ev, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c, pl); err != nil {
		t.Fatal(err)
	}
	_, evE, err := exact.OptimalPar(context.Background(), c, pl, 150, 700, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.LogRel-evE.LogRel) > 1e-6*(1+math.Abs(evE.LogRel)) {
		t.Fatalf("ILP logRel %v != exact %v", ev.LogRel, evE.LogRel)
	}
}

func TestILPUsesPaperRates(t *testing.T) {
	// With the paper's tiny failure rates (1e-8), objective scaling must
	// keep the solver numerically sane.
	r := rng.New(7)
	c := chain.PaperRandom(r, 6)
	pl := platform.PaperHomogeneous(5)
	model, err := BuildPaper(c, pl, 200, 600)
	if err != nil {
		t.Fatal(err)
	}
	m, ev, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c, pl); err != nil {
		t.Fatal(err)
	}
	_, evE, err := exact.OptimalPar(context.Background(), c, pl, 200, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Failure probabilities around 1e-9..1e-3: compare in log space.
	if math.Abs(ev.LogRel-evE.LogRel) > 1e-6*(1+math.Abs(evE.LogRel))+1e-15 {
		t.Fatalf("ILP logRel %v != exact %v", ev.LogRel, evE.LogRel)
	}
}

// NumVars returns the number of a_{i,j,k} variables after period
// filtering.
func (m *PaperModel) NumVars() int { return len(m.vars) }
