// Command report generates a markdown dependability report for one
// instance: optimized mapping, evaluation, periodic schedule, frontier
// context, mission-level reliability and an optional Monte-Carlo check.
//
// Usage:
//
//	report -instance inst.json [-period P] [-latency L] [-method auto]
//	       [-unit 36] [-mission 8760] [-simulate 100000] [-scale 1e5]
//	       [-o report.md]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"relpipe"
	"relpipe/internal/report"
)

func main() {
	instPath := flag.String("instance", "", "instance JSON file (required)")
	period := flag.Float64("period", 0, "period bound (0 = unconstrained)")
	latency := flag.Float64("latency", 0, "latency bound (0 = unconstrained)")
	methodStr := flag.String("method", "auto", "optimization method")
	unit := flag.Float64("unit", 36, "seconds per time unit (paper calibration: 36)")
	mission := flag.Float64("mission", 8760, "mission duration in hours")
	simulate := flag.Int("simulate", 0, "Monte-Carlo data sets (0 = skip)")
	scale := flag.Float64("scale", 1e5, "failure-rate multiplier for the simulation")
	out := flag.String("o", "-", "output file (- for stdout)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	if err := run(*instPath, *period, *latency, *methodStr, *unit, *mission, *simulate, *scale, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(instPath string, period, latency float64, methodStr string, unit, mission float64, simulate int, scale float64, seed uint64, out string) error {
	if instPath == "" {
		return fmt.Errorf("-instance is required")
	}
	b, err := os.ReadFile(instPath)
	if err != nil {
		return err
	}
	var in relpipe.Instance
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	method, err := relpipe.ParseMethod(methodStr)
	if err != nil {
		return err
	}
	opts := report.Options{
		Bounds:         relpipe.Bounds{Period: period, Latency: latency},
		Method:         method,
		SecondsPerUnit: unit,
		MissionHours:   mission,
		SimDataSets:    simulate,
		SimRateScale:   scale,
		Seed:           seed,
	}
	w := os.Stdout
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report.Generate(in, opts, w)
}
