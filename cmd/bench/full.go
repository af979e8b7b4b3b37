//go:build full

package main

import (
	"context"

	"relpipe/internal/chain"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/expfig"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// Paper-scale extras, compiled only under the "full" build tag so the
// quick CI gate stays fast while `go run -tags full ./cmd/bench` also
// measures the figure sweeps and the heterogeneous oracle. CI's vet step
// runs with -tags full so this file stays compile-checked.
func init() {
	benchmarks = append(benchmarks,
		benchmark{"figure06-07", func(sz sizes) func() {
			cfg := expfig.Config{Instances: 10, Tasks: 15, Procs: 10, Seed: 1, Step: 5}
			return func() {
				f, _ := expfig.Fig6and7(cfg)
				sink += float64(len(f.Series))
			}
		}},
		benchmark{"exact-het", func(sz sizes) func() {
			c := chain.PaperRandom(rng.New(99), 6)
			pl := platform.PaperHomogeneous(6)
			return func() {
				_, ev, err := exactref.OptimalHetPar(context.Background(), c, pl, 0, 0, 0)
				if err != nil {
					panic(err)
				}
				sink += ev.LogRel
			}
		}},
	)
}
