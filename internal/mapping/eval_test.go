package mapping

// Unit and property tests for the incremental Evaluator: bit-identity
// of its Score with the full evaluation's after every kind of
// neighborhood move, a walk long enough to overwrite replica-factor
// cache slots, the Apply/Commit/Revert state machine, and the
// zero-allocation contract of the steady-state cycle. FuzzEvalDelta
// extends the bit-identity check to fuzzer-chosen instances and move
// scripts.

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// evalBits collapses the aggregate scalars of an Eval to their exact
// bit patterns; two Evals compare equal iff they agree bit-for-bit.
func evalBits(ev Eval) [6]uint64 {
	return [6]uint64{
		math.Float64bits(ev.LogRel),
		math.Float64bits(ev.FailProb),
		math.Float64bits(ev.ExpPeriod),
		math.Float64bits(ev.ExpLatency),
		math.Float64bits(ev.WorstPeriod),
		math.Float64bits(ev.WorstLatency),
	}
}

// scoreBits collapses a Score to its exact bit patterns; the
// Evaluator's Score must equal the full pass's Eval.Score() under it.
func scoreBits(s Score) [3]uint64 {
	return [3]uint64{
		math.Float64bits(s.LogRel),
		math.Float64bits(s.WorstPeriod),
		math.Float64bits(s.WorstLatency),
	}
}

// fullScore is the Score of the full evaluation of m.
func fullScore(c chain.Chain, pl platform.Platform, m Mapping) [3]uint64 {
	return scoreBits(EvaluateUnchecked(c, pl, m).Score())
}

// unusedProcs lists the processors of pl that serve no interval of m,
// in ascending order.
func unusedProcs(pl platform.Platform, m Mapping) []int {
	used := make([]bool, pl.P())
	for _, ps := range m.Procs {
		for _, u := range ps {
			used[u] = true
		}
	}
	var out []int
	for u, b := range used {
		if !b {
			out = append(out, u)
		}
	}
	return out
}

// neighborMove builds a mapping-level neighbor of m for one of the
// seven search neighborhoods (kind 0..6), with x and y steering the
// deterministic choices. It mirrors the Touched contracts the search
// moves produce, so the evaluator tests cover exactly the shapes the
// hot loop generates. Returns ok=false when the move is infeasible on
// m (too few intervals, no pool processor, replica bounds).
func neighborMove(pl platform.Platform, m Mapping, kind, x, y int) (Mapping, Touched, bool) {
	nm := m.Clone()
	mlen := len(nm.Parts)
	switch kind {
	case 0: // shift the boundary between intervals b and b+1
		if mlen < 2 {
			return Mapping{}, Touched{}, false
		}
		b := x % (mlen - 1)
		if y%2 == 0 {
			if nm.Parts[b+1].Size() < 2 {
				return Mapping{}, Touched{}, false
			}
			nm.Parts[b].Last++
			nm.Parts[b+1].First++
		} else {
			if nm.Parts[b].Size() < 2 {
				return Mapping{}, Touched{}, false
			}
			nm.Parts[b].Last--
			nm.Parts[b+1].First--
		}
		return nm, TouchTwo(b, b+1), true
	case 1: // merge intervals j and j+1, capping replicas at K
		if mlen < 2 {
			return Mapping{}, Touched{}, false
		}
		j := x % (mlen - 1)
		merged := append(append([]int(nil), nm.Procs[j]...), nm.Procs[j+1]...)
		if len(merged) > pl.MaxReplicas {
			merged = merged[:pl.MaxReplicas]
		}
		nm.Parts[j].Last = nm.Parts[j+1].Last
		nm.Parts = append(nm.Parts[:j+1], nm.Parts[j+2:]...)
		nm.Procs[j] = merged
		nm.Procs = append(nm.Procs[:j+1], nm.Procs[j+2:]...)
		return nm, TouchMerge(j), true
	case 2: // split interval j, staffing the right half
		j := x % mlen
		size := nm.Parts[j].Size()
		if size < 2 {
			return Mapping{}, Touched{}, false
		}
		cut := nm.Parts[j].First + y%(size-1)
		var rightProc int
		if unused := unusedProcs(pl, m); len(unused) > 0 {
			rightProc = unused[y%len(unused)]
		} else if len(nm.Procs[j]) >= 2 {
			last := len(nm.Procs[j]) - 1
			rightProc = nm.Procs[j][last]
			nm.Procs[j] = nm.Procs[j][:last]
		} else {
			return Mapping{}, Touched{}, false
		}
		parts := append(interval.Partition(nil), nm.Parts[:j]...)
		parts = append(parts,
			interval.Interval{First: nm.Parts[j].First, Last: cut},
			interval.Interval{First: cut + 1, Last: nm.Parts[j].Last})
		parts = append(parts, nm.Parts[j+1:]...)
		procs := append([][]int(nil), nm.Procs[:j+1]...)
		procs = append(procs, []int{rightProc})
		procs = append(procs, nm.Procs[j+1:]...)
		nm.Parts, nm.Procs = parts, procs
		return nm, TouchSplit(j), true
	case 3: // swap a replica of j for a pool processor
		unused := unusedProcs(pl, m)
		if len(unused) == 0 {
			return Mapping{}, Touched{}, false
		}
		j := x % mlen
		nm.Procs[j][y%len(nm.Procs[j])] = unused[(x+y)%len(unused)]
		return nm, TouchOne(j), true
	case 4: // add a pool processor as a replica of j
		unused := unusedProcs(pl, m)
		if len(unused) == 0 {
			return Mapping{}, Touched{}, false
		}
		j := x % mlen
		if len(nm.Procs[j]) >= pl.MaxReplicas {
			return Mapping{}, Touched{}, false
		}
		nm.Procs[j] = append(nm.Procs[j], unused[y%len(unused)])
		return nm, TouchOne(j), true
	case 5: // drop a replica of j
		j := x % mlen
		if len(nm.Procs[j]) < 2 {
			return Mapping{}, Touched{}, false
		}
		ri := y % len(nm.Procs[j])
		nm.Procs[j] = append(nm.Procs[j][:ri], nm.Procs[j][ri+1:]...)
		return nm, TouchOne(j), true
	case 6: // steal a replica from src for dst
		if mlen < 2 {
			return Mapping{}, Touched{}, false
		}
		src, dst := x%mlen, y%mlen
		if src == dst || len(nm.Procs[src]) < 2 || len(nm.Procs[dst]) >= pl.MaxReplicas {
			return Mapping{}, Touched{}, false
		}
		ri := (x + y) % len(nm.Procs[src])
		u := nm.Procs[src][ri]
		nm.Procs[src] = append(nm.Procs[src][:ri], nm.Procs[src][ri+1:]...)
		nm.Procs[dst] = append(nm.Procs[dst], u)
		return nm, TouchTwo(src, dst), true
	}
	panic("unknown move kind")
}

func TestEvaluatorInitMatchesFull(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := randomSetup(r)
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		return scoreBits(ev.Init(m)) == fullScore(c, pl, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorRandomWalkMatchesFull(t *testing.T) {
	// A commit/revert walk over all seven neighborhoods: every Apply
	// must agree bit-for-bit with a from-scratch evaluation of the
	// neighbor, whatever mix of commits and reverts preceded it.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := randomSetup(r)
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		if scoreBits(ev.Init(m)) != fullScore(c, pl, m) {
			return false
		}
		for step := 0; step < 40; step++ {
			kind := r.IntN(7)
			nm, touched, ok := neighborMove(pl, m, kind, r.IntN(1<<16), r.IntN(1<<16))
			if !ok {
				continue
			}
			if err := nm.Validate(c, pl); err != nil {
				t.Fatalf("neighborMove kind %d built an invalid mapping: %v", kind, err)
			}
			if scoreBits(ev.Apply(nm, touched)) != fullScore(c, pl, nm) {
				return false
			}
			if r.Bernoulli(0.5) {
				ev.Commit()
				m = nm
			} else {
				ev.Revert()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorCacheCollisionWalk(t *testing.T) {
	// A 500-task chain on 60 processors: the walk's intervals and
	// replicas produce far more distinct (First, Last, u) keys than
	// the cache has slots, so colliding keys overwrite each other and
	// evicted factors are recomputed. Every Apply must still match
	// the full pass bit for bit.
	r := rng.New(500)
	c := chain.PaperRandom(r, 500)
	pl := platform.PaperHeterogeneous(r, 60)
	counts := make([]int, 40)
	for j := range counts {
		counts[j] = 1
	}
	for j := 0; j < 20; j++ {
		counts[j] = 2
	}
	m := AssignSequential(interval.FromEnds(evenEnds(len(c), len(counts))), counts)
	if err := m.Validate(c, pl); err != nil {
		t.Fatal(err)
	}
	keys := map[[3]int]bool{}
	noteKeys := func(m Mapping, js ...int) {
		for _, j := range js {
			if j < 0 {
				continue
			}
			for _, u := range m.Procs[j] {
				keys[[3]int{m.Parts[j].First, m.Parts[j].Last, u}] = true
			}
		}
	}
	ev := NewEvaluator(c, pl, NewLinks(c, pl))
	if scoreBits(ev.Init(m)) != fullScore(c, pl, m) {
		t.Fatal("Init diverges from the full evaluation")
	}
	for j := range m.Parts {
		noteKeys(m, j)
	}
	for step := 0; step < 6000; step++ {
		kind := r.IntN(7)
		nm, touched, ok := neighborMove(pl, m, kind, r.IntN(1<<16), r.IntN(1<<16))
		if !ok {
			continue
		}
		noteKeys(nm, touched.A, touched.B)
		if got, want := ev.Apply(nm, touched), fullScore(c, pl, nm); scoreBits(got) != want {
			t.Fatalf("step %d (kind %d): delta score %+v diverges from the full pass", step, kind, got)
		}
		if r.Bernoulli(0.5) {
			ev.Commit()
			m = nm
		} else {
			ev.Revert()
		}
	}
	hits, misses := ev.FactorCounts()
	t.Logf("%d distinct factor keys, %d hits, %d misses", len(keys), hits, misses)
	if len(keys) <= factorSlots {
		t.Fatalf("walk produced %d distinct factor keys, want more than the %d slots", len(keys), factorSlots)
	}
	// Every miss but a key's first computes a factor the cache held
	// and lost to a colliding key.
	if misses <= len(keys) || hits == 0 {
		t.Fatalf("hits %d, misses %d over %d distinct keys: want hits and overwritten slots", hits, misses, len(keys))
	}
}

// evenEnds returns the ends of m near-equal intervals of n tasks.
func evenEnds(n, m int) []int {
	ends := make([]int, m)
	for j := range ends {
		ends[j] = (j+1)*n/m - 1
	}
	return ends
}

func TestEvaluatorStateMachinePanics(t *testing.T) {
	r := rng.New(7)
	c, pl, m := randomSetup(r)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Apply before Init", func() {
		NewEvaluator(c, pl, NewLinks(c, pl)).Apply(m, TouchOne(0))
	})
	mustPanic("Commit without Apply", func() {
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		ev.Init(m)
		ev.Commit()
	})
	mustPanic("Revert without Apply", func() {
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		ev.Init(m)
		ev.Revert()
	})
	mustPanic("Apply twice without Commit/Revert", func() {
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		ev.Init(m)
		ev.Apply(m, TouchOne(0))
		ev.Apply(m, TouchOne(0))
	})
}

func TestEvaluatorApplyAllocates(t *testing.T) {
	// The steady-state Apply/Revert and Apply/Commit cycles must not
	// allocate — the whole point of the evaluator is a hot loop with
	// zero per-move garbage.
	r := rng.New(99)
	c, pl, m := randomSetup(r)
	nm, touched, ok := neighborMove(pl, m, 0, 1, 0)
	for k := 1; !ok && k < 7; k++ {
		nm, touched, ok = neighborMove(pl, m, k, 1, 0)
	}
	if !ok {
		t.Skip("no feasible move on this instance")
	}
	ev := NewEvaluator(c, pl, NewLinks(c, pl))
	ev.Init(m)
	ev.Apply(nm, touched) // warm the scratch buffers
	ev.Revert()
	if n := testing.AllocsPerRun(200, func() {
		ev.Apply(nm, touched)
		ev.Revert()
	}); n != 0 {
		t.Fatalf("Apply/Revert cycle allocates %.1f times per run, want 0", n)
	}
}
