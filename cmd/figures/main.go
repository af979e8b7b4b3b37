// Command figures regenerates every figure of the paper's evaluation
// (§8, Figures 6–15) and writes, per figure, a CSV of the series and an
// ASCII rendering.
//
// Usage:
//
//	figures [-out results] [-instances 100] [-seed 1] [-step 1] [-figs 6,7,12] [-parallel 0]
//
// With the default flags this reproduces the paper's experimental setup
// exactly (100 instances, 15 tasks, 10 processors); DESIGN.md maps each
// figure to the package that computes it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"relpipe/internal/expfig"
	"relpipe/internal/textplot"
)

// pairs are the paper's figures, computed two at a time; extras are the
// beyond-the-paper figures behind -extra.
var (
	pairs = []struct {
		ids [2]string
		fn  func(expfig.Config) (expfig.Figure, expfig.Figure)
	}{
		{[2]string{"fig06", "fig07"}, expfig.Fig6and7},
		{[2]string{"fig08", "fig09"}, expfig.Fig8and9},
		{[2]string{"fig10", "fig11"}, expfig.Fig10and11},
		{[2]string{"fig12", "fig13"}, expfig.Fig12and13},
		{[2]string{"fig14", "fig15"}, expfig.Fig14and15},
	}
	extras = []func(expfig.Config) expfig.Figure{expfig.RoutingOverhead, expfig.HeuristicGap, expfig.AdaptPolicySweep}
)

func main() {
	outDir := flag.String("out", "results", "output directory")
	instances := flag.Int("instances", 100, "instances per experiment")
	seed := flag.Uint64("seed", 1, "base random seed")
	step := flag.Int("step", 1, "sweep step multiplier (>1 = coarser, faster)")
	figsFlag := flag.String("figs", "", "comma-separated figure numbers (default: all)")
	hetSpeedMax := flag.Float64("hetspeedmax", 100, "upper end of heterogeneous speeds (paper text: 100; 10 reproduces the Fig. 12 ramp)")
	extra := flag.Bool("extra", false, "also produce the beyond-the-paper figures (figA1 routing cost, figA4 heuristic gap, figB1 adaptation-policy sweep)")
	parallel := flag.Int("parallel", 0, "experiment parallelism (0 = GOMAXPROCS, 1 = sequential; figures are identical for any value)")
	flag.Parse()

	want := map[string]bool{}
	if *figsFlag != "" {
		for _, tok := range strings.Split(*figsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 6 || n > 15 {
				fmt.Fprintf(os.Stderr, "figures: bad figure number %q (want 6..15)\n", tok)
				os.Exit(2)
			}
			want[fmt.Sprintf("fig%02d", n)] = true
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	cfg := expfig.Config{Instances: *instances, Seed: *seed, Step: *step, HetSpeedMax: *hetSpeedMax, Parallelism: *parallel}

	for _, p := range pairs {
		if len(want) > 0 && !want[p.ids[0]] && !want[p.ids[1]] {
			continue
		}
		start := time.Now()
		a, b := p.fn(cfg)
		fmt.Printf("%s+%s computed in %v\n", a.ID, b.ID, time.Since(start).Round(time.Millisecond))
		for _, f := range []expfig.Figure{a, b} {
			if len(want) > 0 && !want[f.ID] {
				continue
			}
			if err := emit(*outDir, f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}
	}
	if *extra {
		for _, fn := range extras {
			start := time.Now()
			f := fn(cfg)
			fmt.Printf("%s computed in %v\n", f.ID, time.Since(start).Round(time.Millisecond))
			if err := emit(*outDir, f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}
	}
}

func emit(dir string, f expfig.Figure) error {
	csvPath := filepath.Join(dir, f.ID+".csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := expfig.WriteCSV(f, cf); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}

	series := make([]textplot.Series, len(f.Series))
	for i, s := range f.Series {
		series[i] = textplot.Series{Label: s.Label, X: s.X, Y: s.Y}
	}
	chart := textplot.Render(series, textplot.Options{
		Title:  fmt.Sprintf("%s — %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		YLog:   f.YLog,
		Width:  76,
		Height: 22,
	})
	txtPath := filepath.Join(dir, f.ID+".txt")
	if err := os.WriteFile(txtPath, []byte(chart), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s and %s\n", csvPath, txtPath)
	return nil
}
