package relpipe_test

// Facade-level pinning of the shared heuristic-tables seam: a solve
// fed pre-built tables through Options.Tables (the service table
// tier's injection point) must return exactly the solution of a self-building
// solve. The per-candidate checks live in internal/heur and
// internal/search; this layer guards the facade wiring
// (BuildHeuristicTables, the provider call through Options.Tables).
import (
	"reflect"
	"testing"

	"relpipe"
)

func TestOptimizeWithSharedHeuristicTables(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(17, 40, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(10, 1, 1e-8, 1, 1e-5, 3),
	}
	bounds := relpipe.Bounds{Period: 400, Latency: 4000}
	base := relpipe.Options{Restarts: 3, Budget: 500, Seed: 2}
	want, err := relpipe.OptimizeWith(inst, bounds, relpipe.Heuristic, base)
	if err != nil {
		t.Fatal(err)
	}

	tables := relpipe.BuildHeuristicTables(inst)
	if tables == nil {
		t.Fatal("BuildHeuristicTables returned nil")
	}
	calls := 0
	shared := base
	shared.Tables = func(in relpipe.Instance) *relpipe.HeuristicTables {
		calls++
		if in.Canonical() != inst.Canonical() {
			t.Fatalf("provider called with a foreign instance")
		}
		return tables
	}
	got, err := relpipe.OptimizeWith(inst, bounds, relpipe.Heuristic, shared)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Options.Tables provider was never consulted")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-tables solution differs:\n got %+v\nwant %+v", got, want)
	}

	// A provider that declines (nil) must leave the solve untouched too.
	declined := base
	declined.Tables = func(relpipe.Instance) *relpipe.HeuristicTables { return nil }
	got, err = relpipe.OptimizeWith(inst, bounds, relpipe.Heuristic, declined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("declining tables provider changed the solution")
	}
}
