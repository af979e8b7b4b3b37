package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/clock"
	"relpipe/internal/golden"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/search"
)

// syncSubmitter solves remaps synchronously through the real search
// engine: the outcome channel is already full when SubmitRemap
// returns, so the controller adopts on its next tick — fully
// deterministic under a fake clock.
type syncSubmitter struct {
	parallelism int
	err         error // injected admission failure
	submitted   []Remap
}

func (s *syncSubmitter) SubmitRemap(r Remap) (<-chan RemapOutcome, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.submitted = append(s.submitted, r)
	ch := make(chan RemapOutcome, 1)
	res, ok, err := search.Repair(r.Chain, r.Platform, r.Mapping, r.Alive, search.Options{
		Period: r.Period, Latency: r.Latency,
		Restarts: r.Restarts, Budget: r.Budget,
		Seed: r.Seed, Parallelism: s.parallelism,
	})
	if err != nil {
		ch <- RemapOutcome{Err: err.Error()}
	} else {
		ch <- RemapOutcome{OK: ok, Mapping: res.M}
	}
	return ch, nil
}

// testInstance builds a deterministic heterogeneous instance and an
// optimized initial mapping for it.
func testInstance(t testing.TB, n, p int) (chain.Chain, platform.Platform, mapping.Mapping) {
	t.Helper()
	r := rng.New(7)
	c := chain.PaperRandom(r, n)
	pl := platform.PaperHeterogeneous(r, p)
	res, _, err := search.Optimize(c, pl, search.Options{Restarts: 2, Budget: 800, Seed: 1})
	if err != nil {
		t.Fatalf("seed optimize: %v", err)
	}
	return c, pl, res.M
}

// newTestController wires a controller to a fake clock and a
// synchronous submitter; tests drive Tick directly and set each
// deployment's guard rails on its Spec.
func newTestController(sub Submitter) (*Controller, *clock.Fake) {
	clk := clock.NewFake(time.Unix(10_000, 0))
	ctl := New(Options{Clock: clk, Submitter: sub})
	return ctl, clk
}

// fastPolicy keeps scripted scenarios short: 1s heartbeats, tight
// windows.
func fastPolicy() Policy {
	return Policy{
		HeartbeatInterval: time.Second,
		MissedHeartbeats:  3,
		RecoverHeartbeats: 2,
		Cooldown:          30 * time.Second,
		BreakerWindow:     5 * time.Minute,
		MaxRemaps:         2,
		MinSamples:        4,
	}
}

func mustRegister(t testing.TB, ctl *Controller, spec Spec) Status {
	t.Helper()
	st, err := ctl.Register(spec)
	if err != nil {
		t.Fatalf("register %q: %v", spec.ID, err)
	}
	return st
}

func mustIngest(t testing.TB, ctl *Controller, id string, evs ...Event) {
	t.Helper()
	if _, err := ctl.Ingest(id, evs); err != nil {
		t.Fatalf("ingest %q: %v", id, err)
	}
}

func kinds(decs []Decision) []DecisionKind {
	out := make([]DecisionKind, len(decs))
	for i, d := range decs {
		out[i] = d.Kind
	}
	return out
}

func TestRegisterValidation(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	ctl, _ := newTestController(&syncSubmitter{parallelism: -1})

	if _, err := ctl.Register(Spec{ID: "", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5}); err == nil {
		t.Fatal("empty id admitted")
	}
	if _, err := ctl.Register(Spec{ID: "x", Chain: c, Platform: pl, Mapping: m, MinReliability: 1.5}); err == nil {
		t.Fatal("floor >= 1 admitted")
	}
	bad := m.Clone()
	bad.Procs[0] = nil
	if _, err := ctl.Register(Spec{ID: "x", Chain: c, Platform: pl, Mapping: bad, MinReliability: 0.5}); err == nil {
		t.Fatal("invalid mapping admitted")
	}
	if _, err := ctl.Register(Spec{ID: "x", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := ctl.Register(Spec{ID: "x", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate id: err = %v, want ErrExists", err)
	}
	if _, err := ctl.Ingest("nope", []Event{{Type: EventHeartbeat}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ingest: err = %v, want ErrNotFound", err)
	}
	if _, err := ctl.Ingest("x", []Event{{Type: EventCrash, Proc: 99}}); err == nil {
		t.Fatal("out-of-range processor admitted")
	}
	if _, err := ctl.Ingest("x", []Event{{Type: "bogus"}}); err == nil {
		t.Fatal("unknown event type admitted")
	}
	if !ctl.Deregister("x") || ctl.Deregister("x") {
		t.Fatal("deregister semantics broken")
	}
}

func TestDeploymentCap(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	clk := clock.NewFake(time.Unix(0, 0))
	ctl := New(Options{Clock: clk, MaxDeployments: 1})
	mustRegister(t, ctl, Spec{ID: "a", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5})
	if _, err := ctl.Register(Spec{ID: "b", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

// TestCrashTriggersRemapAndAdoption is the core loop: a crash report
// kills a mapped processor, the controller submits a warm-started
// remap, and the next tick adopts a mapping that avoids the dead
// processor and restores reliability above the degraded level.
func TestCrashTriggersRemapAndAdoption(t *testing.T) {
	// 16 processors, K=3: the optimum leaves idle spares, so the remap
	// after a crash has room to strictly improve on the degraded
	// mapping. The registered Period models an injection rate with
	// slack over the initial mapping's worst case — without slack a
	// replacement replica on a slower spare would be infeasible.
	c, pl, m := testInstance(t, 8, 16)
	period := 4 * mapping.EvaluateUnchecked(c, pl, m).WorstPeriod
	sub := &syncSubmitter{parallelism: -1}
	ctl, clk := newTestController(sub)
	st0 := mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, Period: period, MinReliability: 1e-9, Restarts: 2, Budget: 800, Policy: fastPolicy()})

	victim := m.Procs[0][0]
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: victim})
	clk.Advance(time.Second)
	ctl.Tick() // proc-dead + remap submitted (degraded trigger)

	st, _ := ctl.Status("d")
	if !st.RemapInFlight || st.Remaps != 1 {
		t.Fatalf("after crash tick: %+v", st)
	}
	if len(st.DeadProcs) != 1 || st.DeadProcs[0] != victim {
		t.Fatalf("dead procs = %v, want [%d]", st.DeadProcs, victim)
	}
	degradedLogRel := st.LogRel

	clk.Advance(time.Second)
	ctl.Tick() // adopt
	st, _ = ctl.Status("d")
	if st.RemapInFlight || st.RemapsAdopted != 1 {
		t.Fatalf("after adopt tick: %+v", st)
	}
	for _, ps := range st.Mapping.Procs {
		for _, u := range ps {
			if u == victim {
				t.Fatalf("adopted mapping still uses dead processor %d: %v", victim, st.Mapping.Procs)
			}
		}
	}
	if st.Degraded || st.Down {
		t.Fatalf("adopted mapping still degraded: %+v", st)
	}
	if st.LogRel <= degradedLogRel {
		t.Fatalf("adopted log-reliability %g not above degraded %g", st.LogRel, degradedLogRel)
	}
	if len(sub.submitted) != 1 {
		t.Fatalf("submissions = %d, want 1", len(sub.submitted))
	}
	r := sub.submitted[0]
	if r.Alive[victim] {
		t.Fatal("remap request did not mask the dead processor")
	}
	if _, whole, degraded := r.Mapping.Mask(r.Alive); !whole || !degraded {
		t.Fatalf("remap mapping whole=%v degraded=%v, want the running mapping with a dead replica that Repair can warm-start from", whole, degraded)
	}
	want := []DecisionKind{DecisionRegistered, DecisionProcDead, DecisionRemap, DecisionAdopt}
	if got := kinds(st.Decisions); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decision kinds = %v, want %v", got, want)
	}
	if st0.Remaps != 0 {
		t.Fatalf("initial status already counted remaps: %+v", st0)
	}
}

// TestDriftBelowFloorTriggersRemap: no processor dies; the floor is
// set above the current reliability at registration, so the very first
// evaluation drifts and triggers exactly one remap.
func TestDriftBelowFloorTriggersRemap(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	// Degrade the seed mapping to a single replica everywhere it has
	// more, so the floor sits between the degraded and optimal levels.
	weak := m.Clone()
	for j := range weak.Procs {
		weak.Procs[j] = weak.Procs[j][:1]
	}
	ev := mapping.EvaluateUnchecked(c, pl, weak)
	floor := math.Exp(ev.LogRel) * 1.0000001 // just above the weak mapping
	if floor >= 1 {
		t.Skip("weak mapping already at reliability 1")
	}
	sub := &syncSubmitter{parallelism: -1}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: weak, MinReliability: floor, Restarts: 2, Budget: 800, Policy: fastPolicy()})
	st, _ := ctl.Status("d")
	if !st.Drifting {
		t.Fatalf("not drifting at registration: rel=%g floor=%g", st.Reliability, floor)
	}
	clk.Advance(time.Second)
	ctl.Tick()
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.Remaps != 1 || st.RemapsAdopted != 1 {
		t.Fatalf("remaps = %d adopted = %d, want 1/1", st.Remaps, st.RemapsAdopted)
	}
	if st.Drifting || st.Reliability < floor {
		t.Fatalf("still drifting after adopt: rel=%g floor=%g", st.Reliability, floor)
	}
}

// TestHeartbeatTimeoutAndRecovery exercises the hysteresis state
// machine: K silent intervals kill a reporting processor, R beats
// readmit it, and the death/recovery both mark the record dirty.
func TestHeartbeatTimeoutAndRecovery(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	pol := fastPolicy()
	ctl, clk := newTestController(&syncSubmitter{parallelism: -1})
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Policy: pol})

	u := m.Procs[0][0]
	mustIngest(t, ctl, "d", Event{Type: EventHeartbeat, Proc: u})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ := ctl.Status("d")
	if len(st.DeadProcs) != 0 {
		t.Fatalf("healthy beat killed the proc: %+v", st)
	}

	// Silence for K+1 intervals.
	clk.Advance(time.Duration(pol.MissedHeartbeats+1) * pol.HeartbeatInterval)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if len(st.DeadProcs) != 1 || st.DeadProcs[0] != u {
		t.Fatalf("dead procs = %v, want [%d]", st.DeadProcs, u)
	}
	if !st.Degraded {
		t.Fatal("mapped dead proc did not mark the deployment degraded")
	}

	// One beat is not enough (R = 2)...
	mustIngest(t, ctl, "d", Event{Type: EventHeartbeat, Proc: u})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if len(st.DeadProcs) != 1 {
		t.Fatal("single beat readmitted the proc (hysteresis broken)")
	}
	// ...the second readmits.
	mustIngest(t, ctl, "d", Event{Type: EventHeartbeat, Proc: u})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if len(st.DeadProcs) != 0 {
		t.Fatalf("proc not readmitted after %d beats: %v", pol.RecoverHeartbeats, st.DeadProcs)
	}

	// A crash report is final: beats never readmit.
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: u})
	clk.Advance(time.Second)
	ctl.Tick()
	for i := 0; i < 5; i++ {
		mustIngest(t, ctl, "d", Event{Type: EventHeartbeat, Proc: u})
		clk.Advance(time.Second)
		ctl.Tick()
	}
	st, _ = ctl.Status("d")
	if len(st.DeadProcs) != 1 {
		t.Fatal("crash-reported proc was readmitted by heartbeats")
	}
}

// TestFlappingSuppression is the guard-rail contract: a node that
// dies, recovers and dies again cannot trigger a remap storm — the
// cooldown suppresses the immediate retrigger (suppressed counter
// asserted) and the breaker caps submissions per window.
func TestFlappingSuppression(t *testing.T) {
	c, pl, m := testInstance(t, 8, 16)
	period := 4 * mapping.EvaluateUnchecked(c, pl, m).WorstPeriod
	pol := fastPolicy() // cooldown 30s, breaker: max 2 per 5m
	sub := &syncSubmitter{parallelism: -1}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, Period: period, MinReliability: 1e-9, Restarts: 2, Budget: 800, Policy: pol})

	// crashMapped kills a processor currently holding a replica, so
	// the deployment degrades and wants a remap.
	crashMapped := func() {
		st, _ := ctl.Status("d")
		mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: st.Mapping.Procs[0][0]})
	}

	// Death #1 → remap #1 submitted, adopted next tick. The cooldown
	// starts at the adoption.
	crashMapped()
	clk.Advance(time.Second)
	ctl.Tick()
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ := ctl.Status("d")
	if st.Remaps != 1 || st.RemapsAdopted != 1 {
		t.Fatalf("after first death: remaps/adopted = %d/%d, want 1/1", st.Remaps, st.RemapsAdopted)
	}

	// Death #2 lands inside the cooldown: trigger suppressed.
	crashMapped()
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.Remaps != 1 {
		t.Fatalf("cooldown did not hold: remaps = %d", st.Remaps)
	}
	if st.RemapsSuppressed == 0 {
		t.Fatal("cooldown suppression not counted")
	}

	// Past the cooldown the persisting degradation submits remap #2,
	// exhausting the breaker budget (MaxRemaps = 2 per 5m).
	clk.Advance(pol.Cooldown)
	ctl.Tick()
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.Remaps != 2 || st.RemapsAdopted != 2 {
		t.Fatalf("after cooldown: remaps/adopted = %d/%d, want 2/2", st.Remaps, st.RemapsAdopted)
	}

	// Death #3 after the cooldown but inside the breaker window: the
	// breaker, not the cooldown, suppresses it.
	clk.Advance(pol.Cooldown + time.Second)
	ctl.Tick()
	crashMapped()
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.Remaps != 2 {
		t.Fatalf("breaker did not hold: remaps = %d", st.Remaps)
	}
	if !st.BreakerOpen {
		t.Fatal("breaker not reported open")
	}
	if st.RemapsSuppressed == 0 {
		t.Fatal("suppressed-remap counter never incremented")
	}
	fleetStats := ctl.Stats()
	if fleetStats.Suppressed != st.RemapsSuppressed {
		t.Fatalf("controller suppressed = %d, deployment = %d", fleetStats.Suppressed, st.RemapsSuppressed)
	}
	var reasons []string
	for _, dec := range st.Decisions {
		if dec.Kind == DecisionSuppressed {
			reasons = append(reasons, dec.Reason)
		}
	}
	foundCooldown, foundBreaker := false, false
	for _, r := range reasons {
		switch r {
		case "cooldown":
			foundCooldown = true
		case "breaker":
			foundBreaker = true
		}
	}
	if !foundCooldown || !foundBreaker {
		t.Fatalf("suppression reasons = %v, want both cooldown and breaker", reasons)
	}

	// Once the breaker window passes, remaps resume.
	clk.Advance(pol.BreakerWindow)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.Remaps != 3 {
		t.Fatalf("remaps after breaker window = %d, want 3", st.Remaps)
	}
}

// TestSubmitErrorOpensBreaker: an admission failure (the jobs engine's
// per-client cap, in production) opens the breaker instead of
// hot-looping submissions.
func TestSubmitErrorOpensBreaker(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	sub := &syncSubmitter{parallelism: -1, err: errors.New("jobs: per-client live job cap reached")}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Policy: fastPolicy()})
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: m.Procs[0][0]})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ := ctl.Status("d")
	if st.Remaps != 0 || st.RemapsFailed != 1 {
		t.Fatalf("remaps/failed = %d/%d, want 0/1", st.Remaps, st.RemapsFailed)
	}
	if !st.BreakerOpen {
		t.Fatal("admission failure did not open the breaker")
	}
	// The cooldown also backs the failure off: the next tick does not
	// resubmit.
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if st.RemapsFailed != 1 {
		t.Fatalf("failure hot loop: failed = %d", st.RemapsFailed)
	}
}

// TestNoSubmitterFailsLikeAdmissionError: a controller built without a
// Submitter fails every trigger through the admission-error path.
func TestNoSubmitterFailsLikeAdmissionError(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	ctl := New(Options{Clock: clock.NewFake(time.Unix(10_000, 0))})
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Policy: fastPolicy()})
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: m.Procs[0][0]})
	ctl.Tick()
	st, _ := ctl.Status("d")
	if st.Remaps != 0 || st.RemapsFailed != 1 || ctl.Stats().Failed != 1 {
		t.Fatalf("remaps/failed = %d/%d (fleet failed %d), want 0/1 (1)", st.Remaps, st.RemapsFailed, ctl.Stats().Failed)
	}
	if !st.BreakerOpen {
		t.Fatal("missing submitter did not open the breaker")
	}
	last := st.Decisions[len(st.Decisions)-1]
	if last.Kind != DecisionRemapFailed || last.Reason != "no submitter configured" {
		t.Fatalf("last decision = %+v, want remap-failed \"no submitter configured\"", last)
	}
}

// TestSeedZeroAliasesOne: a deployment registered without a seed takes
// the repo-wide default seed 1, so its remaps run with seeds 1, 2, …
// rather than 0 and 1 (which search would both solve as seed 1).
func TestSeedZeroAliasesOne(t *testing.T) {
	c, pl, m := testInstance(t, 8, 16)
	period := 4 * mapping.EvaluateUnchecked(c, pl, m).WorstPeriod
	sub := &syncSubmitter{parallelism: -1}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, Period: period, MinReliability: 1e-9, Restarts: 2, Budget: 800, Policy: fastPolicy()})

	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: m.Procs[0][0]})
	clk.Advance(time.Second)
	ctl.Tick() // remap 0 submitted
	clk.Advance(time.Second)
	ctl.Tick() // adopted
	st, _ := ctl.Status("d")
	if st.RemapsAdopted != 1 {
		t.Fatalf("first remap not adopted: %+v", st)
	}
	clk.Advance(fastPolicy().Cooldown)
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: st.Mapping.Procs[0][0]})
	clk.Advance(time.Second)
	ctl.Tick() // remap 1 submitted

	var seeds []uint64
	for _, r := range sub.submitted {
		seeds = append(seeds, r.Seed)
	}
	if fmt.Sprint(seeds) != "[1 2]" {
		t.Fatalf("remap seeds = %v, want [1 2]", seeds)
	}
}

// TestAnomalyDetection: stable failure counts build the baseline;
// a deviating sample past MinSamples logs an anomaly decision and
// flags the status.
func TestAnomalyDetection(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	ctl, clk := newTestController(&syncSubmitter{parallelism: -1})
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Policy: fastPolicy()})
	// Alternating 1/2 keeps the stddev positive.
	for i := 0; i < 6; i++ {
		mustIngest(t, ctl, "d", Event{Type: EventFailures, Value: float64(1 + i%2)})
		clk.Advance(time.Second)
		ctl.Tick()
	}
	st, _ := ctl.Status("d")
	if st.Anomalous {
		t.Fatalf("baseline flagged anomalous: %+v", st.Baseline)
	}
	if st.Baseline.Count != 6 || st.Baseline.Mean != 1.5 {
		t.Fatalf("baseline = %+v", st.Baseline)
	}
	mustIngest(t, ctl, "d", Event{Type: EventFailures, Value: 50})
	clk.Advance(time.Second)
	ctl.Tick()
	st, _ = ctl.Status("d")
	if !st.Anomalous {
		t.Fatal("outlier not flagged anomalous")
	}
	if st.Baseline.Last != 50 {
		t.Fatalf("baseline.Last = %g, want 50", st.Baseline.Last)
	}
	found := false
	for _, dec := range st.Decisions {
		if dec.Kind == DecisionAnomaly {
			found = true
		}
	}
	if !found {
		t.Fatal("no anomaly decision logged")
	}
}

// runScriptedScenario executes a fixed multi-deployment event script
// and returns the controller's full observable output: every decision
// log and every submitted remap's inputs and adopted mapping, JSON-
// rendered. The determinism contract says these bytes are identical
// run-to-run at any search parallelism.
func runScriptedScenario(t *testing.T, parallelism int) []byte {
	t.Helper()
	c, pl, m := testInstance(t, 12, 10)
	sub := &syncSubmitter{parallelism: parallelism}
	ctl, clk := newTestController(sub)
	mustRegister(t, ctl, Spec{ID: "alpha", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Restarts: 4, Budget: 800, Seed: 3, Mission: 1e6, Policy: fastPolicy()})
	mustRegister(t, ctl, Spec{ID: "beta", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Restarts: 4, Budget: 800, Seed: 4, Policy: fastPolicy()})

	script := []struct {
		id  string
		evs []Event
	}{
		{"alpha", []Event{{Type: EventHeartbeat, Proc: 0}, {Type: EventFailures, Value: 1}}},
		{"beta", []Event{{Type: EventCrash, Proc: m.Procs[0][0]}}},
		{"alpha", []Event{{Type: EventFailures, Value: 2}, {Type: EventFailures, Value: 1}}},
		{"alpha", []Event{{Type: EventCrash, Proc: m.Procs[len(m.Procs)-1][0]}}},
		{"beta", []Event{{Type: EventFailures, Value: 3}}},
		{"alpha", []Event{{Type: EventFailures, Value: 1}, {Type: EventFailures, Value: 9}}},
	}
	for _, step := range script {
		mustIngest(t, ctl, step.id, step.evs...)
		clk.Advance(time.Second)
		ctl.Tick()
	}
	// Drain: enough ticks for adoptions and a cooldown expiry.
	for i := 0; i < 40; i++ {
		clk.Advance(time.Second)
		ctl.Tick()
	}

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, st := range ctl.List() {
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range sub.submitted {
		if err := enc.Encode(map[string]any{
			"deployment": r.DeploymentID, "seed": r.Seed, "alive": r.Alive, "reason": r.Reason,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestDeterminism pins the contract: fake clock + scripted events →
// bit-identical decision logs and remap results, run-to-run and across
// search parallelism 1 vs 8, equal to the committed digest.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scripted scenario runs several searches")
	}
	log := golden.Bytes(t, "decision log", golden.Digest(decisionLogGolden), func(par int) []byte {
		return runScriptedScenario(t, par)
	})
	if !bytes.Equal(log, runScriptedScenario(t, 1)) {
		t.Fatal("sequential scenario not reproducible run-to-run")
	}
	if !bytes.Contains(log, []byte(`"remap-adopted"`)) {
		t.Fatal("scenario never adopted a remap — script lost its teeth")
	}
}

// decisionLogGolden is the SHA-256 of runScriptedScenario's log. It
// changes only when a change moves remap answers or decisions on
// purpose; that change records the new digest and says why in its
// change notes.
const decisionLogGolden = "8738a7bd18b091c2be2ad28064820eec903c16f3c154cf8c8be922674cccac78"

// TestSubscribeNotifies: decisions wake subscribers; deregistration
// wakes them too so streams can end.
func TestSubscribeNotifies(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	ctl, clk := newTestController(&syncSubmitter{parallelism: -1})
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Policy: fastPolicy()})
	ch, ok := ctl.Subscribe("d")
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer ctl.Unsubscribe("d", ch)
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: m.Procs[0][0]})
	clk.Advance(time.Second)
	ctl.Tick()
	select {
	case <-ch:
	default:
		t.Fatal("no notification after decision")
	}
	decs, ok := ctl.DecisionsSince("d", 1) // skip "registered"
	if !ok || len(decs) == 0 {
		t.Fatalf("DecisionsSince = %v %v", decs, ok)
	}
	if decs[0].Seq < 2 {
		t.Fatalf("seq filter broken: %+v", decs[0])
	}
}

// TestStartStopLoop: the background loop ticks on the fake clock's
// ticker and Stop halts it.
func TestStartStopLoop(t *testing.T) {
	c, pl, m := testInstance(t, 8, 8)
	sub := &syncSubmitter{parallelism: -1}
	clk := clock.NewFake(time.Unix(0, 0))
	ctl := New(Options{Clock: clk, Submitter: sub, TickInterval: time.Second})
	mustRegister(t, ctl, Spec{ID: "d", Chain: c, Platform: pl, Mapping: m, MinReliability: 1e-9, Restarts: 2, Budget: 800, Policy: fastPolicy()})
	ctl.Start()
	mustIngest(t, ctl, "d", Event{Type: EventCrash, Proc: m.Procs[0][0]})
	clk.Advance(time.Second)
	// The loop goroutine consumes the tick asynchronously: poll for
	// the visible effect.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := ctl.Status("d")
		if st.Remaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never processed the crash")
		}
		time.Sleep(time.Millisecond)
	}
	ctl.Stop()
	if _, err := ctl.Register(Spec{ID: "late", Chain: c, Platform: pl, Mapping: m, MinReliability: 0.5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after Stop = %v, want ErrClosed", err)
	}
}

// TestIdleTickAllocationFree pins the steady-state contract the
// fleet-tick bench kernel gates in CI: a tick with no pending events,
// no deadline crossings and nothing in flight allocates nothing, so an
// idle fleet costs a GC-free scan regardless of deployment count.
func TestIdleTickAllocationFree(t *testing.T) {
	c, pl, m := testInstance(t, 8, 6)
	ctl, _ := newTestController(&syncSubmitter{parallelism: 1})
	for i := 0; i < 16; i++ {
		mustRegister(t, ctl, Spec{
			ID: fmt.Sprintf("d%02d", i), Chain: c, Platform: pl, Mapping: m,
			MinReliability: 1e-12,
		})
	}
	if allocs := testing.AllocsPerRun(200, ctl.Tick); allocs != 0 {
		t.Fatalf("idle tick allocates %.1f objects/op, want 0", allocs)
	}
}
