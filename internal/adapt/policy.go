package adapt

import (
	"relpipe/internal/mapping"
	"relpipe/internal/search"
)

// repair applies the configured policy after interval j lost its
// replica on the crashed processor u, and returns the action taken.
// The engine has already removed the dead replica from e.cur.
func (e *engine) repair(j, u int) Action {
	switch e.opts.Policy {
	case PolicySpares:
		if e.sparesLeft > 0 {
			return e.repairSpare(j, u)
		}
	case PolicyGreedy:
		if v, ok := e.bestIdleProc(j, true); ok {
			e.cur.Procs[j] = append(e.cur.Procs[j], v)
			return ActionGreedy
		}
	case PolicyRemap:
		if e.repairRemap(j) {
			return ActionRemap
		}
	}
	if len(e.cur.Procs[j]) == 0 {
		return ActionDown
	}
	return ActionDegrade
}

// repairSpare swaps a fresh unit into the dead processor's slot: the
// mapping is unchanged, the slot's speed and failure rate are those of
// the unit it replaces, and the fresh unit's own crash time is drawn at
// activation (cold standby).
func (e *engine) repairSpare(j, u int) Action {
	e.sparesLeft--
	e.result.Metrics.SparesUsed++
	e.alive[u] = true
	e.cur.Procs[j] = append(e.cur.Procs[j], u)
	if t, ok := e.crashTime(e.crashRnd, u); ok {
		e.scheduleCrash(e.eng.Now()+t, u)
	}
	return ActionSpare
}

// bestIdleProc picks the cheapest idle surviving processor for interval
// j: lowest enrollment cost first (when Options.Costs is set), then
// lowest single-replica failure probability, then lowest index — a
// deterministic total order. With requireBounds, candidates whose
// (worst-case) replica would push the patched mapping past the Period
// or Latency bound are rejected: a patch that breaks the real-time
// contract is worse than degrading. Remap's warm-start patching passes
// false — the search repairs feasibility itself.
func (e *engine) bestIdleProc(j int, requireBounds bool) (int, bool) {
	if len(e.cur.Procs[j]) >= e.pl.MaxReplicas {
		return 0, false
	}
	used := make([]bool, e.pl.P())
	for _, ps := range e.cur.Procs {
		for _, v := range ps {
			used[v] = true
		}
	}
	work := e.cur.Parts.Work(e.c, j)
	in := e.cur.Parts.In(e.c, j)
	out := e.cur.Parts.Out(e.c, j)
	best, bestCost, bestFail := -1, 0.0, 0.0
	for v := 0; v < e.pl.P(); v++ {
		if used[v] || !e.alive[v] {
			continue
		}
		if requireBounds && !e.patchMeetsBounds(j, v) {
			continue
		}
		cost := 0.0
		if e.opts.Costs != nil {
			cost = e.opts.Costs[v]
		}
		fail := mapping.ReplicaFailProb(e.pl, v, work, in, out)
		if best < 0 || cost < bestCost || (cost == bestCost && fail < bestFail) {
			best, bestCost, bestFail = v, cost, fail
		}
	}
	return best, best >= 0
}

// patchMeetsBounds reports whether adding processor v to interval j
// keeps the mapping on time: within the latency bound and able to
// sustain the injection period (a slow replica raises the worst-case
// period even when no explicit Period bound is set).
func (e *engine) patchMeetsBounds(j, v int) bool {
	patched := e.cur.Clone()
	patched.Procs[j] = append(patched.Procs[j], v)
	for _, ps := range patched.Procs {
		if len(ps) == 0 {
			// Another interval is empty (the system is down): worst-case
			// timing is undefined, so only validity gates the patch.
			return true
		}
	}
	return mapping.EvaluateUnchecked(e.c, e.pl, patched).MeetsBounds(e.period, e.opts.Latency)
}

// repairRemap re-optimizes the mapping over the surviving processors
// with search.Repair, warm-started from the degraded mapping (made
// valid, if needed, by the greedy patch), and reports whether the
// result was adopted. The search runs sequentially — replications
// already shard across workers — with a seed drawn from the policy
// stream, so the run stays a pure function of Options.Seed.
func (e *engine) repairRemap(j int) bool {
	seed := e.policyRnd.Uint64()
	cand := e.cur
	if len(cand.Procs[j]) == 0 {
		if v, ok := e.bestIdleProc(j, false); ok {
			cand = cand.Clone()
			cand.Procs[j] = append(cand.Procs[j], v)
		}
	}
	// The period bound handed to the search is the injection period:
	// the rate the repaired mapping must sustain.
	res, ok, err := search.Repair(e.c, e.pl, cand, e.alive, search.Options{
		Period: e.period, Latency: e.opts.Latency,
		Restarts: e.opts.Restarts, Budget: e.opts.Budget,
		Seed: seed, Parallelism: -1,
	})
	if err != nil {
		e.err = err
		return false
	}
	// Every remap adopts a whole mapping, so the running one was whole
	// before this crash and is still whole iff interval j kept a
	// replica. A degraded mapping never violates the worst-case bounds
	// (removing replicas only lowers worst costs): it is kept over a
	// late result, which is adopted only over going down.
	if !search.Adopt(res.M, ok, len(e.cur.Procs[j]) > 0) {
		return false
	}
	e.cur = res.M
	return true
}
