package report

import (
	"strings"
	"testing"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homInstance() relpipe.Instance {
	return relpipe.Instance{
		Chain:    chain.PaperRandom(rng.New(3), 8),
		Platform: platform.PaperHomogeneous(6),
	}
}

func TestGenerateFullReport(t *testing.T) {
	var sb strings.Builder
	opts := Options{
		Bounds:         relpipe.Bounds{Period: 250, Latency: 800},
		Method:         relpipe.Exact,
		SecondsPerUnit: 36,
		MissionHours:   8760,
		SimDataSets:    3000,
		SimRateScale:   1e5,
		Seed:           7,
	}
	if err := Generate(homInstance(), opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, section := range []string{
		"# Dependability report",
		"## Instance",
		"## Mapping (exact)",
		"## Periodic schedule",
		"## Reliability/period frontier",
		"## Mission analysis",
		"## Monte-Carlo validation",
		"failure probability per data set",
		"MTTF",
	} {
		if !strings.Contains(out, section) {
			t.Fatalf("report missing %q:\n%s", section, out)
		}
	}
}

func TestGenerateWithoutSimulation(t *testing.T) {
	var sb strings.Builder
	if err := Generate(homInstance(), Options{Method: relpipe.DP, Bounds: relpipe.Bounds{Period: 300}}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Monte-Carlo") {
		t.Fatal("simulation section present despite SimDataSets=0")
	}
}

func TestGenerateHeterogeneous(t *testing.T) {
	r := rng.New(5)
	in := relpipe.Instance{
		Chain:    chain.PaperRandom(r, 8),
		Platform: platform.PaperHeterogeneous(r, 6),
	}
	var sb strings.Builder
	if err := Generate(in, Options{Method: relpipe.BestHeuristic}, &sb); err != nil {
		t.Fatal(err)
	}
	// No frontier section on heterogeneous platforms.
	if strings.Contains(sb.String(), "frontier") {
		t.Fatal("frontier section on a heterogeneous platform")
	}
	if !strings.Contains(sb.String(), "## Periodic schedule") {
		t.Fatal("schedule section missing")
	}
}

func TestGenerateInfeasible(t *testing.T) {
	var sb strings.Builder
	err := Generate(homInstance(), Options{Bounds: relpipe.Bounds{Period: 1e-9}}, &sb)
	if err == nil {
		t.Fatal("infeasible bounds produced a report")
	}
}

func TestGenerateInvalidInstance(t *testing.T) {
	var sb strings.Builder
	in := homInstance()
	in.Chain = nil
	if err := Generate(in, Options{}, &sb); err == nil {
		t.Fatal("invalid instance produced a report")
	}
}
