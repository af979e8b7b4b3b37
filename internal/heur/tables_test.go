package heur

// Tests of the shared-table seam (NewGen's tables argument): shared
// tables must be invisible in the results — every candidate bit-equal
// to private tables — the adoption guard must refuse tables that cannot
// serve a generator, and each table must build lazily, at most once.

import (
	"reflect"
	"sync"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// evalsEq compares the scalar objectives of two evaluations exactly
// (the per-stage breakdown is derived from the same inputs).
func evalsEq(a, b mapping.Eval) bool {
	return a.LogRel == b.LogRel && a.FailProb == b.FailProb &&
		a.ExpLatency == b.ExpLatency && a.WorstLatency == b.WorstLatency &&
		a.ExpPeriod == b.ExpPeriod && a.WorstPeriod == b.WorstPeriod
}

// candidate materializes candidate (m, orientation) of g the way the
// heuristics materialize their winner: Build, then the partition, the
// seed's replica sets and their evaluation.
func candidate(g *Gen, m int, latencyOriented bool) (Result, bool) {
	s, ok := g.Build(m, latencyOriented)
	if !ok {
		return Result{}, false
	}
	parts, _ := g.Partition(m, latencyOriented)
	mp := mapping.Mapping{Parts: parts, Procs: s.Procs()}
	ev, err := mapping.Evaluate(g.c, g.pl, mp)
	return Result{M: mp, Ev: ev}, err == nil
}

func sameResult(a, b Result) bool {
	if !evalsEq(a.Ev, b.Ev) || len(a.M.Parts) != len(b.M.Parts) {
		return false
	}
	for j := range a.M.Parts {
		if a.M.Parts[j] != b.M.Parts[j] {
			return false
		}
	}
	return true
}

func TestWithTablesCandidatesBitIdentical(t *testing.T) {
	r := rng.New(3)
	for _, pl := range []platform.Platform{
		homPl(6),
		platform.RandomHeterogeneous(r, 5, 0.5, 2, 1e-3, 1e-2, 1, 1e-3, 3),
	} {
		c := chain.PaperRandom(r, 10)
		mm := maxIntervals(c, pl)
		tables := BuildTables(c, pl)
		if tables.MaxIntervals() != mm {
			t.Fatalf("MaxIntervals = %d, want %d", tables.MaxIntervals(), mm)
		}
		opts := Options{Period: 120}
		plain := NewGen(c, pl, opts, nil)
		shared := NewGen(c, pl, opts, tables)
		for m := 1; m <= mm; m++ {
			for _, latencyOriented := range []bool{false, true} {
				got, okG := candidate(shared, m, latencyOriented)
				want, okW := candidate(plain, m, latencyOriented)
				if okG != okW {
					t.Fatalf("m=%d lat=%v: ok %v vs %v", m, latencyOriented, okG, okW)
				}
				if okG && !sameResult(got, want) {
					t.Fatalf("m=%d lat=%v: shared-tables candidate diverges: %+v vs %+v",
						m, latencyOriented, got, want)
				}
			}
		}
		for name, fn := range map[string]func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){
			"HeurP": HeurP, "HeurL": HeurL, "Best": Best,
		} {
			got, okG, errG := fn(c, pl, opts, tables)
			want, okW, errW := fn(c, pl, opts, nil)
			if errG != nil || errW != nil || okG != okW || (okG && !sameResult(got, want)) {
				t.Fatalf("%s: shared tables give %+v %v %v, private %+v %v %v", name, got, okG, errG, want, okW, errW)
			}
		}
	}
}

// TestWithTablesSupportsSmallerGenerators: tables built for a larger
// interval range serve a generator sweeping a prefix of it (the
// HeurPTable contract: Partition(m) is bit-identical for any m ≤ the
// build-time maxM).
func TestWithTablesSupportsSmallerGenerators(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 8)
	tables := BuildTables(c, homPl(8))
	for _, p := range []int{1, 3} {
		pl := homPl(p)
		shared := NewGen(c, pl, Options{}, tables)
		if shared.t != tables {
			t.Fatalf("P=%d: generator refused tables with a larger range", p)
		}
		private := NewGen(c, pl, Options{}, nil)
		for m := 1; m <= p; m++ {
			got, okG := shared.Partition(m, false)
			want, okW := private.Partition(m, false)
			if okG != okW || !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d m=%d: shared tables diverge (%v %v / %v %v)", p, m, got, okG, want, okW)
			}
		}
	}
}

func TestWithTablesRejectsMismatches(t *testing.T) {
	r := rng.New(7)
	c8, c10 := chain.PaperRandom(r, 8), chain.PaperRandom(r, 10)
	pl := homPl(4)

	// Different chain length: refused, private tables keep working.
	other := BuildTables(c8, pl)
	g := NewGen(c10, pl, Options{}, other)
	if g.t == other {
		t.Fatal("generator adopted tables for a different chain")
	}
	if _, ok := candidate(g, 2, false); !ok {
		t.Fatal("private tables broken after refused adoption")
	}

	// Smaller interval range than the generator sweeps: refused (the
	// Heur-P table cannot produce partitions beyond its build range).
	small := BuildTables(c8, platform.Homogeneous(2, 1, 1e-2, 1, 1e-3, 3))
	if small.MaxIntervals() != 2 {
		t.Fatalf("MaxIntervals = %d, want 2", small.MaxIntervals())
	}
	if g := NewGen(c8, pl, Options{}, small); g.t == small {
		t.Fatal("generator adopted tables with a smaller interval range")
	}

	// Nil tables: private ones.
	if g := NewGen(c8, pl, Options{}, nil); g.t == nil {
		t.Fatal("nil tables left the generator without tables")
	}
}

// TestTablesBuildLazilyOnce: each partition table is built on the
// first candidate of its orientation and never again — a lone Heur-L
// run leaves the Heur-P table unbuilt — and concurrent heuristic runs
// through one Tables value answer exactly as private runs do.
func TestTablesBuildLazilyOnce(t *testing.T) {
	r := rng.New(9)
	c := chain.PaperRandom(r, 12)
	pl := platform.RandomHeterogeneous(r, 6, 0.5, 2, 1e-3, 1e-2, 1, 1e-3, 3)
	tables := NewTables(c, pl)
	if tables.Bytes() != 0 {
		t.Fatalf("fresh tables hold %d bytes", tables.Bytes())
	}
	if _, _, err := HeurL(c, pl, Options{Period: 150}, tables); err != nil {
		t.Fatal(err)
	}
	if tables.pTable != nil || tables.lTable == nil {
		t.Fatalf("a Heur-L run built the Heur-P table (%v) or not its own (%v)", tables.pTable != nil, tables.lTable != nil)
	}
	l := tables.lTable

	periods := []float64{0, 60, 90, 150, 150, 400}
	got := make([]Result, len(periods))
	oks := make([]bool, len(periods))
	var wg sync.WaitGroup
	for i, period := range periods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			got[i], oks[i], err = Best(c, pl, Options{Period: period}, tables)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if tables.lTable != l || tables.pTable == nil {
		t.Fatal("the tables were rebuilt, or Heur-P's never built")
	}
	for i, period := range periods {
		want, ok, err := Best(c, pl, Options{Period: period}, nil)
		if err != nil || ok != oks[i] || (ok && !sameResult(got[i], want)) {
			t.Fatalf("period %v: shared %+v %v, private %+v %v %v", period, got[i], oks[i], want, ok, err)
		}
	}
}

// MaxIntervals returns the largest interval count the tables support,
// min(len(chain), P) at construction.
func (t *Tables) MaxIntervals() int { return t.maxM }
