package search

// Bit-identity of the shared-tables seam at the search layer: a search
// seeded through pre-built heuristic tables (Options.Tables, the service
// table tier's injection point) must return exactly the solution of a
// self-building search — same mapping, same evaluation bits.

import (
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/heur"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func TestOptimizeWithSharedTablesBitIdentical(t *testing.T) {
	r := rng.New(11)
	for _, pl := range []platform.Platform{
		platform.Homogeneous(6, 1, 1e-2, 1, 1e-3, 3),
		platform.RandomHeterogeneous(r, 6, 0.5, 2, 1e-3, 1e-2, 1, 1e-3, 3),
	} {
		c := chain.PaperRandom(r, 10)
		tables := heur.BuildTables(c, pl)
		base := Options{Period: 150, Latency: 600, Seed: 1, Restarts: 3, Budget: 500}
		withTables := base
		withTables.Tables = tables

		want, okW, errW := Optimize(c, pl, base)
		got, okG, errG := Optimize(c, pl, withTables)
		if errW != nil || errG != nil {
			t.Fatalf("errors: %v / %v", errW, errG)
		}
		if okW != okG {
			t.Fatalf("feasibility diverges: %v vs %v", okW, okG)
		}
		if !okW {
			continue
		}
		if got.Ev.LogRel != want.Ev.LogRel ||
			got.Ev.WorstPeriod != want.Ev.WorstPeriod ||
			got.Ev.WorstLatency != want.Ev.WorstLatency {
			t.Fatalf("shared-tables search diverges: %+v vs %+v", got.Ev, want.Ev)
		}
		if len(got.M.Parts) != len(want.M.Parts) {
			t.Fatalf("partitions differ: %v vs %v", got.M.Parts, want.M.Parts)
		}
		for j := range got.M.Parts {
			if got.M.Parts[j] != want.M.Parts[j] {
				t.Fatalf("interval %d differs", j)
			}
			if len(got.M.Procs[j]) != len(want.M.Procs[j]) {
				t.Fatalf("replica sets differ at %d", j)
			}
			for i := range got.M.Procs[j] {
				if got.M.Procs[j][i] != want.M.Procs[j][i] {
					t.Fatalf("replica %d of interval %d differs", i, j)
				}
			}
		}
	}
}
