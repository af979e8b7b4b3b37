package fleet

import (
	"testing"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/mttf"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/search"
)

// TestFleetQuality is the CI fleet quality gate (a pinned, fully
// deterministic drift scenario at paper scale): on an n=100
// heterogeneous instance, a scripted crash sequence must trigger
// exactly one warm-started remap whose mission reliability strictly
// beats the degraded mapping's, and the cooldown must provably
// suppress a second remap attempted inside its window (suppressed
// counter asserted). Any controller, trigger or search-quality
// regression fails here.
func TestFleetQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale searches")
	}
	r := rng.New(11)
	c := chain.PaperRandom(r, 100)
	pl := platform.PaperHeterogeneous(r, 30)
	res, _, err := search.Optimize(c, pl, search.Options{Restarts: 4, Budget: 2000, Seed: 1})
	if err != nil {
		t.Fatalf("seed optimize: %v", err)
	}
	m := res.M
	ev0 := mapping.EvaluateUnchecked(c, pl, m)
	// Injection rate with 3x slack over the optimized worst case —
	// the remap needs the same headroom a real deployment has.
	period := 3 * ev0.WorstPeriod
	const mission = 1e7

	pol := Policy{
		HeartbeatInterval: time.Second,
		Cooldown:          time.Minute,
		BreakerWindow:     10 * time.Minute,
		MaxRemaps:         3,
	}
	sub := &syncSubmitter{parallelism: -1}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{
		ID: "fleetq", Chain: c, Platform: pl, Mapping: m,
		Period: period, MinReliability: 1e-12, Mission: mission,
		Restarts: 4, Budget: 2000, Seed: 1,
		Policy: pol,
	})

	// Scripted crash: kill a replica-holding processor.
	victim := m.Procs[0][0]
	mustIngest(t, ctl, "fleetq", Event{Type: EventCrash, Proc: victim})
	clk.Advance(time.Second)
	ctl.Tick() // proc-dead → remap submitted
	st, _ := ctl.Status("fleetq")
	if st.Remaps != 1 {
		t.Fatalf("remaps after crash = %d, want exactly 1", st.Remaps)
	}
	degraded, whole, _ := m.Mask(aliveExcept(pl.P(), victim))
	if !whole {
		t.Fatalf("scenario broken: masking proc %d emptied an interval", victim)
	}
	evDegraded := mapping.EvaluateUnchecked(c, pl, degraded)

	clk.Advance(time.Second)
	ctl.Tick() // adoption
	st, _ = ctl.Status("fleetq")
	if st.RemapsAdopted != 1 {
		t.Fatalf("adopted = %d, want 1 (decisions: %v)", st.RemapsAdopted, kinds(st.Decisions))
	}
	evAdopted := mapping.EvaluateUnchecked(c, pl, st.Mapping)
	if evAdopted.LogRel <= evDegraded.LogRel {
		t.Fatalf("adopted logRel %g does not beat degraded %g", evAdopted.LogRel, evDegraded.LogRel)
	}
	msDegraded, err := mttf.MissionSurvival(evDegraded.FailProb, period, mission)
	if err != nil {
		t.Fatal(err)
	}
	msAdopted, err := mttf.MissionSurvival(evAdopted.FailProb, period, mission)
	if err != nil {
		t.Fatal(err)
	}
	if msAdopted <= msDegraded {
		t.Fatalf("adopted mission reliability %g does not beat degraded %g", msAdopted, msDegraded)
	}
	if st.MissionReliability <= 0 {
		t.Fatalf("status mission reliability not reported: %+v", st)
	}
	if evAdopted.WorstPeriod > period {
		t.Fatalf("adopted mapping misses the period bound: %g > %g", evAdopted.WorstPeriod, period)
	}

	// A second crash inside the cooldown window must be suppressed:
	// still exactly one remap, suppressed counter incremented.
	st, _ = ctl.Status("fleetq")
	mustIngest(t, ctl, "fleetq", Event{Type: EventCrash, Proc: st.Mapping.Procs[0][0]})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("fleetq")
	if st.Remaps != 1 {
		t.Fatalf("cooldown failed: remaps = %d, want still 1", st.Remaps)
	}
	if st.RemapsSuppressed != 1 {
		t.Fatalf("suppressed counter = %d, want 1", st.RemapsSuppressed)
	}
	var suppressed *Decision
	for i := range st.Decisions {
		if st.Decisions[i].Kind == DecisionSuppressed {
			suppressed = &st.Decisions[i]
		}
	}
	if suppressed == nil || suppressed.Reason != "cooldown" {
		t.Fatalf("no cooldown-suppression decision in %v", kinds(st.Decisions))
	}

	// Past the cooldown the still-degraded deployment remaps again —
	// the suppression was a delay, not a loss.
	clk.Advance(pol.Cooldown)
	ctl.Tick()
	st, _ = ctl.Status("fleetq")
	if st.Remaps != 2 {
		t.Fatalf("post-cooldown remaps = %d, want 2", st.Remaps)
	}
}

// aliveExcept returns an all-alive mask with one processor dead.
func aliveExcept(p, dead int) []bool {
	alive := make([]bool, p)
	for i := range alive {
		alive[i] = true
	}
	alive[dead] = false
	return alive
}
