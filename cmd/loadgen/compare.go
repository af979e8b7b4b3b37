package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// declaration is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// compareMain compares two sets of results files, grouped by directory
// in the order they appear (base first, then change). Each end-to-end
// metric of each workload gets its own row: ok, regressed (the change's
// median is worse than the base's by more than the bound) or unresolved
// (the base's own spread is wider than the bound and the change does not
// beat every base run). -claim applies the gain rule to one row: the
// change wins at least 9 in 10 of the pairs (i-th base file against i-th
// change file) and the medians differ by more than the base's IQR.
// The bounds are read from BENCHMARK.json in the working directory.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	claim := fs.String("claim", "", "workload/metric claimed to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen compare:", err)
		return 1
	}
	groups, err := groupByDir(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen compare:", err)
		return 2
	}
	var sides [2]runs
	for i, files := range groups {
		if sides[i], err = loadRuns(files); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen compare:", err)
			return 1
		}
	}
	fmt.Fprintf(out, "base: %d files in %s; change: %d files in %s\n",
		len(groups[0]), filepath.Dir(groups[0][0]), len(groups[1]), filepath.Dir(groups[1][0]))
	fmt.Fprintf(out, "%-14s %-21s %28s %28s %8s %7s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "bound", "status")
	regressed, claimed := 0, false
	for _, w := range workloads {
		for _, d := range decl.EndToEnd {
			b, c := sides[0].values(w.name, d.Name), sides[1].values(w.name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			lower := d.Better == "lower"
			mb, mc := median(b), median(c)
			q1b, q3b := quartiles(b)
			q1c, q3c := quartiles(c)
			worse := (mc - mb) / mb
			if !lower {
				worse = -worse
			}
			status := "ok"
			switch {
			case worse > d.Bound:
				status = "regressed"
				regressed++
			case (q3b-q1b)/mb > d.Bound && !allBetter(c, b, lower):
				status = "unresolved"
			}
			fmt.Fprintf(out, "%-14s %-21s %12.4g [%.4g, %.4g] %12.4g [%.4g, %.4g] %+7.1f%% %6.0f%%  %s\n",
				w.name, d.Name, mb, q1b, q3b, mc, q1c, q3c, 100*(mc-mb)/mb, 100*d.Bound, status)
			if *claim == w.name+"/"+d.Name {
				claimed = true
				pb, pc := pairs(sides, w.name, d.Name)
				if !claimMet(out, pb, pc, b, c, lower) {
					regressed++
				}
			}
		}
	}
	if *claim != "" && !claimed {
		fmt.Fprintf(os.Stderr, "loadgen compare: claim %q names no compared workload/metric\n", *claim)
		return 2
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// claimMet applies the gain rule and prints its verdict: the change
// wins at least 9 in 10 of the pairs and its median beats the base's by
// more than the base's IQR.
func claimMet(out io.Writer, pairBase, pairChange, base, change []float64, lower bool) bool {
	wins := 0
	for i := range pairBase {
		if better(pairChange[i], pairBase[i], lower) {
			wins++
		}
	}
	q1, q3 := quartiles(base)
	mb, mc := median(base), median(change)
	gap := math.Abs(mc - mb)
	met := len(pairBase) > 0 && wins*10 >= len(pairBase)*9 && gap > q3-q1 && better(mc, mb, lower)
	verdict := "NOT MET"
	if met {
		verdict = "met"
	}
	fmt.Fprintf(out, "  claim: change better in %d of %d pairs (need 9 in 10); median gap %.4g vs base IQR %.4g: %s\n",
		wins, len(pairBase), gap, q3-q1, verdict)
	return met
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

// allBetter reports whether every change run beats every base run.
func allBetter(change, base []float64, lower bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b, lower) {
				return false
			}
		}
	}
	return true
}

// groupByDir splits files into exactly two groups by parent directory,
// each sorted by name so that the i-th files of the two sides pair up.
func groupByDir(files []string) ([2][]string, error) {
	var groups [2][]string
	var dirs []string
	for _, f := range files {
		d := filepath.Dir(f)
		i := -1
		for k, known := range dirs {
			if known == d {
				i = k
			}
		}
		if i < 0 {
			if len(dirs) == 2 {
				return groups, fmt.Errorf("files span more than two directories (%s)", strings.Join(append(dirs, d), ", "))
			}
			dirs = append(dirs, d)
			i = len(dirs) - 1
		}
		groups[i] = append(groups[i], f)
	}
	if len(dirs) != 2 {
		return groups, fmt.Errorf("want results files from two directories (base, then change), got %d", len(dirs))
	}
	for i := range groups {
		sort.Strings(groups[i])
	}
	return groups, nil
}

// runs holds, per results file in name order, workload -> metric ->
// value.
type runs []map[string]map[string]float64

// values returns a metric's values over every file that has it.
func (r runs) values(workload, metric string) []float64 {
	var out []float64
	for _, f := range r {
		if v, ok := f[workload][metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// pairs returns the metric's values from the i-th base and i-th change
// files, for every i where both have it.
func pairs(sides [2]runs, workload, metric string) (base, change []float64) {
	for i := 0; i < min(len(sides[0]), len(sides[1])); i++ {
		b, okB := sides[0][i][workload][metric]
		c, okC := sides[1][i][workload][metric]
		if okB && okC {
			base, change = append(base, b), append(change, c)
		}
	}
	return base, change
}

// loadRuns reads results files.
func loadRuns(files []string) (runs, error) {
	var out runs
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		vals := map[string]map[string]float64{}
		for _, r := range rep.Workloads {
			vals[r.Workload] = map[string]float64{}
			for n, m := range r.Metrics {
				vals[r.Workload][n] = m.Value
			}
		}
		out = append(out, vals)
	}
	return out, nil
}
