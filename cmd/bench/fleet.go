package main

import (
	"fmt"
	"time"

	"relpipe/internal/clock"
	"relpipe/internal/dp"
	"relpipe/internal/fleet"
	"relpipe/internal/rng"
)

// Fleet-controller kernel: the steady-state cost a serving node pays
// for hosting deployments that need no attention. One op is one
// control-loop pass (Tick) over 1000 registered deployments with no
// pending telemetry, no deadline crossings and nothing in flight — the
// pass must stay allocation-free (the baseline records 0 allocs/op and
// -check admits only 0), so an idle fleet costs a bounded, GC-free scan
// per tick no matter how many systems are registered.

// fleetTickBench registers 1000 deployments of one small shared
// instance on a fake clock and measures the idle tick.
func fleetTickBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		c, pl := paperChainPlatform(8)
		m, _, err := dp.OptimizeReliability(c, pl)
		if err != nil {
			panic(err)
		}
		ctl := fleet.New(fleet.Options{
			Clock:          clock.NewFake(time.Unix(0, 0)),
			MaxDeployments: 1000,
		})
		r := rng.New(3)
		for i := 0; i < 1000; i++ {
			if _, err := ctl.Register(fleet.Spec{
				ID:             fmt.Sprintf("d%04d", i),
				Chain:          c,
				Platform:       pl,
				Mapping:        m,
				MinReliability: 1e-12,
				Seed:           r.Uint64(),
			}); err != nil {
				panic(err)
			}
		}
		return func() {
			ctl.Tick()
			sink++
		}
	}
}

func init() {
	benchmarks = append(benchmarks,
		benchmark{"fleet-tick", fleetTickBench()},
	)
}
