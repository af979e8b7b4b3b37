// Command simulate pushes data sets through an optimized mapping with
// transient-failure injection and compares the observed behaviour against
// the paper's closed forms (reliability Eq. 9, latency Eq. 5/7, period
// Eq. 6/8).
//
// Usage:
//
//	simulate -instance inst.json [-period P] [-latency L] [-datasets 10000]
//	         [-seed 1] [-scale 1] [-method auto] [-reps 1] [-parallel 0]
//
// -scale multiplies every failure rate, making failures frequent enough
// to observe in a short run (the paper's 1e-8/hour rates would need
// billions of data sets).
//
// -reps > 1 runs that many independent Monte-Carlo replications (seeded
// deterministically from -seed) across -parallel workers and pools their
// statistics; the pooled numbers are bit-identical for any -parallel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"relpipe"
)

func main() {
	instPath := flag.String("instance", "", "instance JSON file (required)")
	period := flag.Float64("period", 0, "period bound for the optimizer (0 = unconstrained)")
	latency := flag.Float64("latency", 0, "latency bound for the optimizer (0 = unconstrained)")
	datasets := flag.Int("datasets", 10000, "number of data sets to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed (0 aliases the default seed 1)")
	scale := flag.Float64("scale", 1, "failure-rate multiplier for observable failures")
	methodStr := flag.String("method", "auto", "optimization method")
	reps := flag.Int("reps", 1, "independent Monte-Carlo replications to pool")
	parallel := flag.Int("parallel", 0, "replication parallelism (0 = GOMAXPROCS, 1 = sequential; results are identical for any value)")
	flag.Parse()

	if err := run(*instPath, *period, *latency, *datasets, *seed, *scale, *methodStr, *reps, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(instPath string, period, latency float64, datasets int, seed uint64, scale float64, methodStr string, reps, parallel int) error {
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
	if scale != 1 {
		for i := range in.Platform.Procs {
			in.Platform.Procs[i].FailRate *= scale
		}
		in.Platform.LinkFailRate *= scale
	}
	method, err := relpipe.ParseMethod(methodStr)
	if err != nil {
		return err
	}
	sol, err := relpipe.Optimize(in, relpipe.Bounds{Period: period, Latency: latency}, method)
	if err != nil {
		return err
	}
	fmt.Printf("mapping: %s\n", sol.Mapping)
	fmt.Printf("analytic: failure=%.6g EL=%.6g WL=%.6g EP=%.6g WP=%.6g\n",
		sol.Eval.FailProb, sol.Eval.ExpLatency, sol.Eval.WorstLatency,
		sol.Eval.ExpPeriod, sol.Eval.WorstPeriod)

	injPeriod := period
	if injPeriod <= 0 {
		injPeriod = sol.Eval.WorstPeriod
	}
	cfg := relpipe.SimConfig{
		Chain: in.Chain, Platform: in.Platform, Mapping: sol.Mapping,
		Period: injPeriod, DataSets: datasets, Seed: seed,
		InjectFailures: true, Routing: relpipe.SimTwoHop,
		WarmUp: datasets / 10,
	}
	p := sol.Eval.FailProb
	if reps > 1 {
		batch, err := relpipe.SimulateBatch(cfg, reps, relpipe.Options{Parallelism: parallel})
		if err != nil {
			return err
		}
		sigma := math.Sqrt(p * (1 - p) / float64(batch.DataSets()))
		fmt.Printf("simulated: reps=%d datasets=%d successes=%d failure=%.6g (±%.2g at 95%%)\n",
			reps, batch.DataSets(), batch.Successes(), batch.FailureRate(), 2*sigma)
		fmt.Printf("simulated: mean latency=%.6g max latency=%.6g steady period=%.6g\n",
			batch.MeanLatency(), batch.MaxLatency(), batch.MeanSteadyPeriod())
		return nil
	}
	res, err := relpipe.Simulate(cfg)
	if err != nil {
		return err
	}
	sigma := math.Sqrt(p * (1 - p) / float64(datasets))
	fmt.Printf("simulated: datasets=%d successes=%d failure=%.6g (±%.2g at 95%%)\n",
		res.DataSets, res.Successes, res.FailureRate(), 2*sigma)
	fmt.Printf("simulated: mean latency=%.6g max latency=%.6g steady period=%.6g\n",
		res.MeanLatency(), res.MaxLatency(), res.SteadyPeriod)
	return nil
}
