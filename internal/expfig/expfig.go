package expfig

import (
	"context"
	"fmt"
	"io"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/failure"
	"relpipe/internal/frontier"
	"relpipe/internal/heur"
	"relpipe/internal/par"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// Config sizes an experiment run. The zero value is filled with the
// paper's parameters.
type Config struct {
	Instances int    // default 100
	Tasks     int    // default 15
	Procs     int    // default 10
	Seed      uint64 // default 1
	// Step multiplies sweep step sizes; >1 coarsens sweeps (benchmarks
	// use coarse sweeps to stay fast).
	Step int
	// HetSpeedMax is the upper end of the heterogeneous speed range
	// (default 100, the paper's stated value). The paper's Fig. 12
	// shows the het curves ramping up at small periods, which is only
	// consistent with a narrower range; HetSpeedMax = 10 (mean ≈ the
	// speed-5 comparison platform) reproduces that ramp (cmd/figures
	// -hetspeedmax 10).
	HetSpeedMax float64
	// Parallelism caps the goroutines used to build instances and sweep
	// bounds (0 = GOMAXPROCS, 1 = sequential). Instance seeds are drawn
	// sequentially up front and every sweep point writes its own index,
	// so figures are bit-identical for any value.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Instances <= 0 {
		c.Instances = 100
	}
	if c.Tasks <= 0 {
		c.Tasks = 15
	}
	if c.Procs <= 0 {
		c.Procs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.HetSpeedMax <= 1 {
		c.HetSpeedMax = 100
	}
	return c
}

// Series is one plotted curve.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	YLog   bool     `json:"ylog"`
	Series []Series `json:"series"`
}

// homInstance carries the precomputed per-instance state of the
// homogeneous sweeps: the Pareto-filtered optimal profiles, and the
// heuristic tables every sweep point runs Heur-L and Heur-P through, so
// their seed memo answers each period-bound cell once.
type homInstance struct {
	c       chain.Chain
	pl      platform.Platform
	optimal []exact.Profile
	tables  *heur.Tables
}

// buildHom precomputes profiles and heuristic tables for every instance
// of the homogeneous experiments. Instances build in parallel: their
// generators are split off the master sequentially first, so the
// result is bit-identical to a sequential build for any parallelism.
func buildHom(cfg Config) []homInstance {
	master := rng.New(cfg.Seed)
	rs := make([]*rng.Rand, cfg.Instances)
	for i := range rs {
		rs[i] = master.Split()
	}
	pl := platform.PaperHomogeneous(cfg.Procs)
	out, err := par.Map(context.Background(), cfg.Parallelism, cfg.Instances, func(i int) (homInstance, error) {
		c := chain.PaperRandom(rs[i], cfg.Tasks)
		profiles, err := exact.Profiles(c, pl)
		if err != nil {
			panic(fmt.Sprintf("expfig: %v", err)) // impossible with valid generators
		}
		optimal := frontier.Front(profiles, exact.Profile.Criteria)
		return homInstance{c: c, pl: pl, optimal: optimal, tables: heur.NewTables(c, pl)}, nil
	})
	if err != nil {
		panic(fmt.Sprintf("expfig: %v", err)) // unreachable: the build never errors
	}
	return out
}

// heuristic runs Heur-L (latencyOriented) or Heur-P on the instance
// under the bounds and returns the winner's log-reliability, and
// whether the heuristic found a mapping.
func (in homInstance) heuristic(latencyOriented bool, period, latency float64) (float64, bool) {
	fn := heur.HeurP
	if latencyOriented {
		fn = heur.HeurL
	}
	res, ok, err := fn(in.c, in.pl, heur.Options{Period: period, Latency: latency}, in.tables)
	if err != nil {
		panic(fmt.Sprintf("expfig: %v", err)) // impossible with valid generators
	}
	return res.Ev.LogRel, ok
}

// homSweep evaluates the three §8.1 curves over the given (P, L) pairs
// and returns the solution-count figure and the failure-probability
// figure.
func homSweep(id1, id2, title1, title2, xlabel string, xs, periods, latencies []float64, insts []homInstance, parallelism int) (Figure, Figure) {
	labels := []string{"ILP", "Heur-L", "Heur-P"}
	counts := make([][]float64, 3)
	fails := make([][]float64, 3)
	for s := range counts {
		counts[s] = make([]float64, len(xs))
		fails[s] = make([]float64, len(xs))
	}
	sweepPoints(parallelism, len(xs), func(xi int) {
		P, L := periods[xi], latencies[xi]
		var nOpt, nL, nP int
		var fOpt, fL, fP float64 // failure sums over the "both" set
		var nBoth int
		for _, in := range insts {
			iOpt := exact.BestUnder(in.optimal, P, L)
			lrL, okL := in.heuristic(true, P, L)
			lrP, okP := in.heuristic(false, P, L)
			if iOpt >= 0 {
				nOpt++
			}
			if okL {
				nL++
			}
			if okP {
				nP++
			}
			if okL && okP && iOpt >= 0 {
				nBoth++
				fOpt += failure.FromLogRel(in.optimal[iOpt].LogRel)
				fL += failure.FromLogRel(lrL)
				fP += failure.FromLogRel(lrP)
			}
		}
		counts[0][xi], counts[1][xi], counts[2][xi] = float64(nOpt), float64(nL), float64(nP)
		if nBoth > 0 {
			fails[0][xi] = fOpt / float64(nBoth)
			fails[1][xi] = fL / float64(nBoth)
			fails[2][xi] = fP / float64(nBoth)
		} else {
			fails[0][xi], fails[1][xi], fails[2][xi] = math.NaN(), math.NaN(), math.NaN()
		}
	})
	mk := func(id, title, ylabel string, ylog bool, ys [][]float64) Figure {
		f := Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, YLog: ylog}
		for s := range labels {
			f.Series = append(f.Series, Series{Label: labels[s], X: xs, Y: ys[s]})
		}
		return f
	}
	return mk(id1, title1, "number of solutions", false, counts),
		mk(id2, title2, "average failure probability", true, fails)
}

func sweepValues(lo, hi, step float64) []float64 {
	var xs []float64
	for v := lo; v <= hi+1e-9; v += step {
		xs = append(xs, v)
	}
	return xs
}

// Fig6and7 reproduces Figures 6 and 7: period sweep with L = 750 on
// homogeneous platforms.
func Fig6and7(cfg Config) (Figure, Figure) {
	cfg = cfg.withDefaults()
	insts := buildHom(cfg)
	xs := sweepValues(10, 500, 10*float64(cfg.Step))
	lat := make([]float64, len(xs))
	for i := range lat {
		lat[i] = 750
	}
	return homSweep("fig06", "fig07",
		"Number of solutions for L=750 (homogeneous)",
		"Average failure probability for L=750 (homogeneous)",
		"bound on period", xs, xs, lat, insts, cfg.Parallelism)
}

// Fig8and9 reproduces Figures 8 and 9: latency sweep with P = 250.
func Fig8and9(cfg Config) (Figure, Figure) {
	cfg = cfg.withDefaults()
	insts := buildHom(cfg)
	xs := sweepValues(400, 1400, 20*float64(cfg.Step))
	per := make([]float64, len(xs))
	for i := range per {
		per[i] = 250
	}
	return homSweep("fig08", "fig09",
		"Number of solutions for P=250 (homogeneous)",
		"Average failure probability for P=250 (homogeneous)",
		"bound on latency", xs, per, xs, insts, cfg.Parallelism)
}

// Fig10and11 reproduces Figures 10 and 11: linked bounds L = 3P.
func Fig10and11(cfg Config) (Figure, Figure) {
	cfg = cfg.withDefaults()
	insts := buildHom(cfg)
	xs := sweepValues(150, 350, 5*float64(cfg.Step))
	lat := make([]float64, len(xs))
	for i := range lat {
		lat[i] = 3 * xs[i]
	}
	return homSweep("fig10", "fig11",
		"Number of solutions for L=3P (homogeneous)",
		"Average failure probability for L=3P (homogeneous)",
		"bound on period", xs, xs, lat, insts, cfg.Parallelism)
}

// hetInstance pairs one chain with its heterogeneous platform and the
// speed-5 homogeneous comparison platform (§8.2), each with the
// heuristic tables every sweep point runs through.
type hetInstance struct {
	c                    chain.Chain
	het, hom             platform.Platform
	hetTables, homTables *heur.Tables
}

func buildHet(cfg Config) []hetInstance {
	master := rng.New(cfg.Seed)
	out := make([]hetInstance, cfg.Instances)
	for i := range out {
		out[i].c = chain.PaperRandom(master.Split(), cfg.Tasks)
		out[i].het = platform.RandomHeterogeneous(master.Split(), cfg.Procs,
			1, cfg.HetSpeedMax, 1e-8, 1e-8, 1, 1e-5, 3)
		out[i].hom = platform.PaperHomogeneousComparison(cfg.Procs)
		out[i].hetTables = heur.NewTables(out[i].c, out[i].het)
		out[i].homTables = heur.NewTables(out[i].c, out[i].hom)
	}
	return out
}

// sweepPoints evaluates one figure pair's sweep with each (P, L) point
// running independently on up to par.Degree(parallelism) goroutines.
// Every point writes only its own column index, so the figures are
// bit-identical for any degree.
func sweepPoints(parallelism, points int, eval func(xi int)) {
	err := par.Run(context.Background(), parallelism, points, func(ctx context.Context, s par.Shard) error {
		for xi := s.Lo; xi < s.Hi; xi++ {
			eval(xi)
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("expfig: %v", err)) // unreachable: eval never errors
	}
}

// hetSweep evaluates the four §8.2 curves (Heur-L/Heur-P × HET/HOM).
func hetSweep(id1, id2, title1, title2, xlabel string, xs, periods, latencies []float64, insts []hetInstance, parallelism int) (Figure, Figure) {
	labels := []string{"Heur-L_HET", "Heur-P_HET", "Heur-L_HOM", "Heur-P_HOM"}
	counts := make([][]float64, 4)
	fails := make([][]float64, 4)
	for s := range counts {
		counts[s] = make([]float64, len(xs))
		fails[s] = make([]float64, len(xs))
	}
	type variant struct {
		fn  func(chain.Chain, platform.Platform, heur.Options, *heur.Tables) (heur.Result, bool, error)
		het bool
	}
	variants := []variant{
		{heur.HeurL, true}, {heur.HeurP, true}, {heur.HeurL, false}, {heur.HeurP, false},
	}
	sweepPoints(parallelism, len(xs), func(xi int) {
		opts := heur.Options{Period: periods[xi], Latency: latencies[xi]}
		for s, v := range variants {
			n := 0
			failSum := 0.0
			for _, in := range insts {
				pl, tables := in.hom, in.homTables
				if v.het {
					pl, tables = in.het, in.hetTables
				}
				res, ok, err := v.fn(in.c, pl, opts, tables)
				if err != nil {
					panic(fmt.Sprintf("expfig: %v", err))
				}
				if !ok {
					continue
				}
				n++
				failSum += res.Ev.FailProb
			}
			counts[s][xi] = float64(n)
			if n > 0 {
				fails[s][xi] = failSum / float64(n)
			} else {
				fails[s][xi] = math.NaN()
			}
		}
	})
	mk := func(id, title, ylabel string, ylog bool, ys [][]float64) Figure {
		f := Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, YLog: ylog}
		for s := range labels {
			f.Series = append(f.Series, Series{Label: labels[s], X: xs, Y: ys[s]})
		}
		return f
	}
	return mk(id1, title1, "number of solutions", false, counts),
		mk(id2, title2, "average failure probability", true, fails)
}

// Fig12and13 reproduces Figures 12 and 13: period sweep with L = 150,
// heterogeneous vs homogeneous platforms.
func Fig12and13(cfg Config) (Figure, Figure) {
	cfg = cfg.withDefaults()
	insts := buildHet(cfg)
	xs := sweepValues(5, 150, 5*float64(cfg.Step))
	lat := make([]float64, len(xs))
	for i := range lat {
		lat[i] = 150
	}
	return hetSweep("fig12", "fig13",
		"Number of solutions for L=150 (het vs hom)",
		"Average failure probability for L=150 (het vs hom)",
		"period", xs, xs, lat, insts, cfg.Parallelism)
}

// Fig14and15 reproduces Figures 14 and 15: latency sweep with P = 50.
func Fig14and15(cfg Config) (Figure, Figure) {
	cfg = cfg.withDefaults()
	insts := buildHet(cfg)
	xs := sweepValues(50, 250, 5*float64(cfg.Step))
	per := make([]float64, len(xs))
	for i := range per {
		per[i] = 50
	}
	return hetSweep("fig14", "fig15",
		"Number of solutions for P=50 (het vs hom)",
		"Average failure probability for P=50 (het vs hom)",
		"latency", xs, per, xs, insts, cfg.Parallelism)
}

// WriteCSV emits the figure as "x,series1,series2,…" rows.
func WriteCSV(f Figure, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	header := f.XLabel
	for _, s := range f.Series {
		header += "," + s.Label
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].X {
		row := fmt.Sprintf("%g", f.Series[0].X[i])
		for _, s := range f.Series {
			row += fmt.Sprintf(",%g", s.Y[i])
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
