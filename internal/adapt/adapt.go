package adapt

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"relpipe/internal/chain"
	"relpipe/internal/des"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
	"relpipe/internal/rng"
)

// Policy selects the repair strategy invoked when a crash removes a
// replica from the running mapping.
type Policy int

const (
	// PolicyNone never repairs: the mapping degrades replica by replica
	// and the system goes down when an interval loses its last one.
	PolicyNone Policy = iota
	// PolicyGreedy applies the cheapest single-interval patch: the
	// harmed interval receives the best idle surviving processor
	// (lowest enrollment cost, then lowest replica failure
	// probability). No global re-optimization.
	PolicyGreedy
	// PolicySpares swaps in a pre-provisioned spare: the dead processor
	// is replaced in place by a fresh unit with identical speed and
	// failure rate, drawn from a pool of configurable size and cost.
	// The mapping is unchanged; when the pool is exhausted the policy
	// degrades like PolicyNone.
	PolicySpares
	// PolicyRemap re-optimizes: a warm-started internal/search run over
	// the surviving processors, seeded from the degraded mapping, and
	// adopts the result (even a bound-violating one, recorded as a
	// violation, rather than going down).
	PolicyRemap
)

var policyNames = map[Policy]string{
	PolicyNone: "none", PolicyGreedy: "greedy", PolicySpares: "spares", PolicyRemap: "remap",
}

// String returns the policy's CLI name.
func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy converts a CLI name into a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return PolicyNone, fmt.Errorf("adapt: unknown policy %q (want none, greedy, spares or remap)", s)
}

// Policies lists every policy in comparison-table order (strongest
// repair first).
func Policies() []Policy {
	return []Policy{PolicyRemap, PolicySpares, PolicyGreedy, PolicyNone}
}

// Options configures one lifetime run (and, through RunBatch, every
// replication of a batch). The zero value of each field selects the
// default noted on it.
type Options struct {
	// Policy selects the repair strategy (default PolicyNone).
	Policy Policy
	// Horizon is the mission length in time units (required, > 0).
	Horizon float64
	// Period and Latency are the real-time bounds the mapping must keep
	// meeting (<= 0 = unconstrained). Period, when set, is also the
	// data-set injection period; otherwise the initial mapping's
	// worst-case period is used.
	Period, Latency float64
	// LifeScale multiplies each processor's transient failure rate λ_u
	// to obtain its permanent-crash rate (0 = default 1; negative
	// disables crashes entirely). The paper's per-data-set rates are
	// ~1e-8; a mission that should see a handful of crashes wants
	// LifeScale large enough that Σ λ_u·LifeScale·Horizon is a few.
	LifeScale float64
	// Spares sizes the PolicySpares replacement pool.
	Spares int
	// SpareCost is charged to the residual cost per consumed spare.
	SpareCost float64
	// Costs optionally prices each processor (len == P); enrolled
	// processors of the final mapping enter the residual cost.
	Costs []float64
	// RepairLatency is the downtime charged per repair action (spare
	// swap, greedy patch or remap); during it the system is down.
	RepairLatency float64
	// Seed drives every random choice; equal seeds give identical runs.
	// 0 aliases the default seed 1 (the repo-wide convention).
	Seed uint64
	// Restarts and Budget tune the PolicyRemap search re-optimization
	// (defaults 2 restarts, 500 iterations: warm-started searches need
	// far less than cold solves).
	Restarts, Budget int
	// Progress, when non-nil, receives (replicationsDone, replications)
	// from RunBatch as replications complete (see internal/progress).
	// Single Run ignores it. Reporting never influences the result.
	Progress progress.Func
}

// defaults resolves the option defaults.
func (o Options) defaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LifeScale == 0 {
		o.LifeScale = 1
	}
	if o.Restarts <= 0 {
		o.Restarts = 2
	}
	if o.Budget <= 0 {
		o.Budget = 500
	}
	return o
}

// validate checks the options against the instance.
func (o Options) validate(pl platform.Platform) error {
	if !(o.Horizon > 0) {
		return errors.New("adapt: Horizon must be positive")
	}
	if o.Spares < 0 {
		return errors.New("adapt: Spares must be non-negative")
	}
	if o.SpareCost < 0 || o.RepairLatency < 0 {
		return errors.New("adapt: SpareCost and RepairLatency must be non-negative")
	}
	if o.Costs != nil && len(o.Costs) != pl.P() {
		return fmt.Errorf("adapt: %d costs for %d processors", len(o.Costs), pl.P())
	}
	for u, cu := range o.Costs {
		if cu < 0 {
			return fmt.Errorf("adapt: negative cost %v for processor %d", cu, u)
		}
	}
	if _, ok := policyNames[o.Policy]; !ok {
		return fmt.Errorf("adapt: unknown policy %v", o.Policy)
	}
	return nil
}

// Action names what the engine did in response to one crash.
type Action string

const (
	// ActionIdle: the crashed processor hosted no replica; nothing to do.
	ActionIdle Action = "idle"
	// ActionDegrade: a replica was lost and the policy left the
	// remaining replicas to carry the interval.
	ActionDegrade Action = "degrade"
	// ActionDown: the harmed interval lost its last replica and the
	// policy could not repair; the pipeline is down.
	ActionDown Action = "down"
	// ActionSpare: a spare was swapped in for the dead processor.
	ActionSpare Action = "spare"
	// ActionGreedy: an idle surviving processor patched the interval.
	ActionGreedy Action = "greedy"
	// ActionRemap: the search engine rebuilt the mapping over the
	// surviving processors.
	ActionRemap Action = "remap"
)

// Event is one entry of the per-run trace: a crash and its handling.
type Event struct {
	// Time of the crash.
	Time float64 `json:"time"`
	// Proc is the processor that crashed.
	Proc int `json:"proc"`
	// Interval is the index of the harmed interval (-1 when idle).
	Interval int `json:"interval"`
	// Action is what the policy did.
	Action Action `json:"action"`
	// LogRel is the per-data-set log-reliability after handling
	// (-Inf while down).
	LogRel float64 `json:"logRel"`
	// Down reports whether the pipeline is down after handling.
	Down bool `json:"down"`
}

// Metrics aggregates one lifetime run.
type Metrics struct {
	// MissionReliability is the probability that every data set of the
	// mission was processed correctly *and on time*: the per-segment
	// failure probabilities integrated at the injection period, 0 as
	// soon as the run has any down time or any segment whose mapping
	// misses the Period/Latency bounds (a hard real-time system counts
	// a deadline miss as a loss, §1).
	MissionReliability float64 `json:"missionReliability"`
	// MissionLogSurvival is its logarithm (kept separately so that
	// near-1 reliabilities keep full precision; -Inf when down time
	// exists).
	MissionLogSurvival float64 `json:"missionLogSurvival"`
	// Availability is the fraction of the mission the pipeline was up.
	Availability float64 `json:"availability"`
	// MeanLogRel is the time-weighted mean per-data-set log-reliability
	// over up time (NaN when the run had no up time). With no crash it
	// equals the initial mapping's Eval.LogRel bit for bit.
	MeanLogRel float64 `json:"meanLogRel"`
	// TimeToFirstViolation is when the system first went down or
	// stopped meeting the bounds; Horizon when it never did.
	TimeToFirstViolation float64 `json:"timeToFirstViolation"`
	// Violated reports whether any violation occurred.
	Violated bool `json:"violated"`
	// Crashes counts processor crashes within the horizon (including
	// crashes of idle processors and of activated spares).
	Crashes int `json:"crashes"`
	// Repairs counts repair actions taken (spare swaps, greedy patches,
	// remaps).
	Repairs int `json:"repairs"`
	// RepairTime is the total downtime charged to repairs.
	RepairTime float64 `json:"repairTime"`
	// SparesUsed counts consumed spares.
	SparesUsed int `json:"sparesUsed"`
	// ResidualCost prices the deployment at mission end: the enrolled
	// processors of the final mapping (under Options.Costs) plus
	// SpareCost per consumed spare.
	ResidualCost float64 `json:"residualCost"`
}

// RunResult is one lifetime run: its seed, trace and metrics.
type RunResult struct {
	Seed    uint64  `json:"seed"`
	Events  []Event `json:"events"`
	Metrics Metrics `json:"metrics"`
	// Final is the mapping running at mission end (intervals that lost
	// every replica keep empty processor sets).
	Final mapping.Mapping `json:"final"`
}

// engine is the mutable state of one lifetime run.
type engine struct {
	c    chain.Chain
	pl   platform.Platform
	opts Options

	eng       *des.Engine
	crashRnd  *rng.Rand // stream for spare-unit lifetimes
	policyRnd *rng.Rand // stream for policy randomness (remap seeds)

	cur   mapping.Mapping
	alive []bool
	// period is the injection period: Options.Period when set, else
	// the initial mapping's worst-case period. Timing checks hold
	// every mapping to it and to Options.Latency (Eval.MeetsBounds).
	period float64

	ev       mapping.Eval // evaluation of cur (valid only while !down)
	down     bool
	violated bool

	segStart   float64
	upTime     float64
	downTime   float64
	lateTime   float64
	logSurvAcc float64
	logRelAcc  float64
	// uniformLogRel tracks whether every up segment so far shared one
	// log-reliability; if so MeanLogRel returns it exactly (no
	// sum-then-divide rounding), which is what makes the zero-crash
	// run reproduce the static evaluation bit for bit.
	uniformLogRel bool
	firstLogRel   float64
	sawUp         bool

	sparesLeft int
	result     RunResult
	err        error // first policy error (aborts the run)
}

// Run executes one lifetime simulation of the initial mapping m0 and
// returns its trace and metrics.
func Run(c chain.Chain, pl platform.Platform, m0 mapping.Mapping, opts Options) (RunResult, error) {
	if err := c.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := pl.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := m0.Validate(c, pl); err != nil {
		return RunResult{}, err
	}
	if err := opts.validate(pl); err != nil {
		return RunResult{}, err
	}
	opts = opts.defaults()

	e := &engine{
		c: c, pl: pl, opts: opts,
		eng:           des.New(),
		cur:           m0.Clone(),
		alive:         make([]bool, pl.P()),
		sparesLeft:    opts.Spares,
		uniformLogRel: true,
	}
	for u := range e.alive {
		e.alive[u] = true
	}
	e.ev = mapping.EvaluateUnchecked(c, pl, e.cur)
	e.period = opts.Period
	if e.period <= 0 {
		e.period = e.ev.WorstPeriod
	}
	if !(e.period > 0) {
		return RunResult{}, errors.New("adapt: non-positive injection period")
	}
	e.result.Seed = opts.Seed
	e.result.Metrics.TimeToFirstViolation = opts.Horizon
	e.checkViolation(0)

	// Crash times: one draw per processor, in processor order, before
	// any other randomness — adding policy draws can never perturb the
	// crash schedule. The policy stream is split off afterwards.
	rand := rng.New(opts.Seed)
	for u := 0; u < pl.P(); u++ {
		if t, ok := e.crashTime(rand, u); ok {
			e.scheduleCrash(t, u)
		}
	}
	e.crashRnd = rand
	e.policyRnd = rand.Split()

	e.eng.RunUntil(opts.Horizon)
	if e.err != nil {
		return RunResult{}, e.err
	}
	e.closeSegment(opts.Horizon)
	e.finish()
	return e.result, nil
}

// crashTime draws processor u's permanent-failure arrival (relative to
// now); ok is false when u never crashes (zero rate or disabled).
func (e *engine) crashTime(r *rng.Rand, u int) (float64, bool) {
	if e.opts.LifeScale < 0 {
		return 0, false
	}
	rate := e.pl.Procs[u].FailRate * e.opts.LifeScale
	if rate <= 0 {
		return 0, false
	}
	return r.Exp(rate), true
}

// scheduleCrash queues the crash of processor u at absolute time t
// (dropped when at or beyond the horizon: the mission ends first).
func (e *engine) scheduleCrash(t float64, u int) {
	if t >= e.opts.Horizon {
		return
	}
	e.eng.At(t, func() { e.crash(u) })
}

// crash handles one permanent failure.
func (e *engine) crash(u int) {
	if e.err != nil {
		return
	}
	now := e.eng.Now()
	e.result.Metrics.Crashes++
	e.alive[u] = false

	j := e.hostedInterval(u)
	if j < 0 {
		// An idle processor died: the running mapping is untouched, but
		// the policies' candidate pools shrank.
		e.record(Event{Time: now, Proc: u, Interval: -1, Action: ActionIdle})
		return
	}

	e.closeSegment(now)
	e.removeReplica(j, u)
	action := e.repair(j, u)
	if repaired := action == ActionSpare || action == ActionGreedy || action == ActionRemap; repaired {
		e.result.Metrics.Repairs++
		e.chargeRepairLatency(now)
	}
	e.refresh()
	e.checkViolation(e.segStart)
	e.record(Event{Time: now, Proc: u, Interval: j, Action: action})
}

// hostedInterval returns the interval whose replica set contains u, or
// -1 when u is idle.
func (e *engine) hostedInterval(u int) int {
	for j, ps := range e.cur.Procs {
		for _, v := range ps {
			if v == u {
				return j
			}
		}
	}
	return -1
}

// removeReplica drops processor u from interval j's replica set.
func (e *engine) removeReplica(j, u int) {
	ps := e.cur.Procs[j]
	out := ps[:0]
	for _, v := range ps {
		if v != u {
			out = append(out, v)
		}
	}
	e.cur.Procs[j] = out
}

// chargeRepairLatency books the configured repair downtime: the new
// mapping takes effect only after it, and the window counts as down.
// A crash landing inside a previous repair window starts its repair
// when that window ends (segStart is already in the future), so
// overlapping windows are never double-booked.
func (e *engine) chargeRepairLatency(now float64) {
	if e.opts.RepairLatency <= 0 {
		return
	}
	start := math.Max(now, e.segStart)
	end := math.Min(start+e.opts.RepairLatency, e.opts.Horizon)
	e.downTime += end - start
	e.result.Metrics.RepairTime += end - start
	e.noteViolation(now)
	e.segStart = end
}

// refresh re-evaluates the current mapping and the down flag after a
// state change.
func (e *engine) refresh() {
	e.down = false
	for _, ps := range e.cur.Procs {
		if len(ps) == 0 {
			e.down = true
			break
		}
	}
	if !e.down {
		e.ev = mapping.EvaluateUnchecked(e.c, e.pl, e.cur)
	}
}

// checkViolation records the first time the system is down or late.
func (e *engine) checkViolation(now float64) {
	if e.down || !e.ev.MeetsBounds(e.period, e.opts.Latency) {
		e.noteViolation(now)
	}
}

func (e *engine) noteViolation(now float64) {
	if !e.violated {
		e.violated = true
		e.result.Metrics.Violated = true
		e.result.Metrics.TimeToFirstViolation = now
	}
}

// closeSegment books the interval [segStart, now) under the current
// state and moves segStart forward.
func (e *engine) closeSegment(now float64) {
	seg := now - e.segStart
	if seg <= 0 {
		return
	}
	e.segStart = now
	if e.down {
		e.downTime += seg
		return
	}
	e.upTime += seg
	if !e.ev.MeetsBounds(e.period, e.opts.Latency) {
		// The pipeline runs but misses its deadlines: the data sets of
		// this segment are late, which a hard real-time mission counts
		// as lost. Availability still sees the segment as up.
		e.lateTime += seg
	}
	e.logSurvAcc += (seg / e.period) * e.ev.LogRel
	e.logRelAcc += seg * e.ev.LogRel
	if !e.sawUp {
		e.sawUp, e.firstLogRel = true, e.ev.LogRel
	} else if e.ev.LogRel != e.firstLogRel {
		e.uniformLogRel = false
	}
}

// record appends a trace event, filling the outcome fields.
func (e *engine) record(ev Event) {
	ev.Down = e.down
	if e.down {
		ev.LogRel = math.Inf(-1)
	} else {
		ev.LogRel = e.ev.LogRel
	}
	e.result.Events = append(e.result.Events, ev)
}

// finish converts the accumulators into Metrics.
func (e *engine) finish() {
	m := &e.result.Metrics
	m.Availability = e.upTime / e.opts.Horizon
	if e.downTime > 0 || e.lateTime > 0 {
		// Data sets injected while down are lost, and data sets of a
		// bound-violating segment are late: either way the mission was
		// not failure-free.
		m.MissionLogSurvival = math.Inf(-1)
		m.MissionReliability = 0
	} else {
		m.MissionLogSurvival = e.logSurvAcc
		m.MissionReliability = math.Exp(e.logSurvAcc)
	}
	switch {
	case !e.sawUp:
		m.MeanLogRel = math.NaN()
	case e.uniformLogRel:
		m.MeanLogRel = e.firstLogRel
	default:
		m.MeanLogRel = e.logRelAcc / e.upTime
	}
	m.ResidualCost = float64(m.SparesUsed) * e.opts.SpareCost
	if e.opts.Costs != nil {
		for _, ps := range e.cur.Procs {
			for _, u := range ps {
				m.ResidualCost += e.opts.Costs[u]
			}
		}
	}
	e.result.Final = e.cur.Clone()
}
