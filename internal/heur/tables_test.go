package heur

// Tests of the shared-table seam (BuildTables / Gen.WithTables): shared
// tables must be invisible in the results — every candidate bit-equal
// to the self-built path — and the adoption guards must refuse tables
// that cannot serve a generator.

import (
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

func maxM(c chain.Chain, pl platform.Platform) int {
	m := len(c)
	if pl.P() < m {
		m = pl.P()
	}
	return m
}

func TestWithTablesCandidatesBitIdentical(t *testing.T) {
	r := rng.New(3)
	for _, pl := range []platform.Platform{
		homPl(6),
		platform.RandomHeterogeneous(r, 5, 0.5, 2, 1e-3, 1e-2, 1, 1e-3, 3),
	} {
		c := chain.PaperRandom(r, 10)
		mm := maxM(c, pl)
		tables := BuildTables(c, pl)
		if tables.MaxIntervals() != mm {
			t.Fatalf("MaxIntervals = %d, want %d", tables.MaxIntervals(), mm)
		}
		opts := Options{Period: 120}
		plain := NewGen(c, pl, mm, opts)
		shared := NewGen(c, pl, mm, opts).WithTables(tables)
		for m := 1; m <= mm; m++ {
			for _, latencyOriented := range []bool{false, true} {
				got, okG := shared.Candidate(m, latencyOriented)
				want, okW := plain.Candidate(m, latencyOriented)
				if okG != okW {
					t.Fatalf("m=%d lat=%v: ok %v vs %v", m, latencyOriented, okG, okW)
				}
				if !okG {
					continue
				}
				if !evalsEq(got.Ev, want.Ev) || got.Intervals != want.Intervals {
					t.Fatalf("m=%d lat=%v: shared-tables candidate diverges: %+v vs %+v",
						m, latencyOriented, got.Ev, want.Ev)
				}
				if len(got.M.Parts) != len(want.M.Parts) {
					t.Fatalf("m=%d lat=%v: partitions differ", m, latencyOriented)
				}
				for j := range got.M.Parts {
					if got.M.Parts[j] != want.M.Parts[j] {
						t.Fatalf("m=%d lat=%v: interval %d differs", m, latencyOriented, j)
					}
				}
			}
		}
	}
}

// TestWithTablesSupportsSmallerGenerators: tables built for the full
// interval range serve a generator sweeping a prefix of it (the
// HeurPTable contract: Partition(m) is bit-identical for any m ≤ the
// build-time maxM).
func TestWithTablesSupportsSmallerGenerators(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 8)
	pl := homPl(8)
	tables := BuildTables(c, pl)
	for _, m := range []int{1, 3} {
		got, okG := NewGen(c, pl, m, Options{}).WithTables(tables).Candidate(m, false)
		want, okW := NewGen(c, pl, m, Options{}).Candidate(m, false)
		if okG != okW || (okG && !evalsEq(got.Ev, want.Ev)) {
			t.Fatalf("maxM=%d: shared tables diverge (ok %v/%v)", m, okG, okW)
		}
	}
}

func TestWithTablesRejectsMismatches(t *testing.T) {
	r := rng.New(7)
	c8, c10 := chain.PaperRandom(r, 8), chain.PaperRandom(r, 10)
	pl := homPl(4)

	// Different chain length: adoption refused, lazy build keeps working.
	g := NewGen(c10, pl, 4, Options{}).WithTables(BuildTables(c8, pl))
	if g.pTable != nil || g.lTable != nil {
		t.Fatal("generator adopted tables for a different chain")
	}
	if _, ok := g.Candidate(2, false); !ok {
		t.Fatal("lazy build broken after refused adoption")
	}

	// Smaller interval range than the generator sweeps: refused (the
	// Heur-P table cannot produce partitions beyond its build range).
	small := BuildTables(c8, platform.Homogeneous(2, 1, 1e-2, 1, 1e-3, 3))
	if small.MaxIntervals() != 2 {
		t.Fatalf("MaxIntervals = %d, want 2", small.MaxIntervals())
	}
	g = NewGen(c8, pl, 4, Options{}).WithTables(small)
	if g.pTable != nil {
		t.Fatal("generator adopted tables with a smaller interval range")
	}

	// Nil tables: no-op.
	if g := NewGen(c8, pl, 4, Options{}).WithTables(nil); g.pTable != nil {
		t.Fatal("nil tables adopted")
	}
}

// MaxIntervals returns the largest interval count the tables support,
// min(len(chain), P) at build time.
func (t *Tables) MaxIntervals() int { return t.maxM }
