package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"relpipe/internal/clock"
	"relpipe/internal/mapping"
	"relpipe/internal/mttf"
	"relpipe/internal/search"
)

// Options configures a Controller. Zero values select the defaults
// noted on each field.
type Options struct {
	// Clock is the controller's time source (default clock.Real()).
	// Tests inject a *clock.Fake and drive Tick directly.
	Clock clock.Clock
	// TickInterval is the control-loop period of Start's background
	// loop (default 1s).
	TickInterval time.Duration
	// MaxDeployments bounds registrations (default 1024).
	MaxDeployments int
	// Submitter runs remap requests; nil fails every trigger like an
	// admission error (a remap-failed decision, breaker open), which
	// suits tests and benchmarks of the tick loop alone.
	Submitter Submitter
	// OnDecision observes every decision as it is logged, for metrics
	// and tracing. Called with the controller's lock held: keep it
	// cheap and do not call back into the Controller.
	OnDecision func(id string, d Decision)
	// OnTick observes every completed tick: its duration, the
	// deployment count and how many decisions it produced. Same
	// locking caveat as OnDecision.
	OnTick func(elapsed time.Duration, deployments, decisions int)
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
	if o.TickInterval <= 0 {
		o.TickInterval = time.Second
	}
	if o.MaxDeployments <= 0 {
		o.MaxDeployments = 1024
	}
	return o
}

// deployment is the controller-private state of one registered system.
type deployment struct {
	spec    Spec
	pol     Policy
	created time.Time

	cur      mapping.Mapping // adopted mapping (dead replicas included)
	period   float64         // injection period handed to remaps
	logFloor float64

	// Masked evaluation state, recomputed when dirty.
	dirty    bool
	eval     mapping.Eval
	rel      float64 // exp(eval.LogRel); 0 when down
	down     bool
	degraded bool // some interval lost a replica to a dead proc
	drifting bool

	// Processor liveness. lastBeat zero = never reported (deadline
	// tracking disarmed for that processor).
	alive      []bool
	crashed    []bool // dead for good; never readmitted
	lastBeat   []time.Time
	beatStreak []int // consecutive beats while timed out

	// Telemetry baseline.
	win       *window
	anomalous bool

	// Events buffered by Ingest, applied in order at the next tick.
	pending []Event

	// Remap machinery.
	inflight      <-chan RemapOutcome
	cooldownUntil time.Time
	submitTimes   []time.Time // trailing submission instants (breaker)
	breakerOpen   bool
	suppressing   bool // latch: one decision per suppression episode

	nRemaps, nAdopted, nSuppressed, nFailed uint64

	// Decision log ring and its subscribers (jobs-style coalescing
	// one-element channels).
	decisions []Decision
	seq       uint64
	subs      map[chan struct{}]struct{}
}

// Controller is the fleet control plane. Create with New, Start the
// background loop (or drive Tick directly in tests), Stop on shutdown.
type Controller struct {
	opts Options

	mu      sync.Mutex
	byID    map[string]*deployment
	order   []*deployment // registration order: tick iterates this
	stopped bool
	running bool

	stopC chan struct{}
	wg    sync.WaitGroup

	// Fleet-wide monotonic counters (metrics).
	remaps, adopted, suppressed, failed uint64
}

// New builds a controller. It does not start the background loop —
// call Start, or drive Tick yourself.
func New(opts Options) *Controller {
	return &Controller{
		opts:  opts.withDefaults(),
		byID:  make(map[string]*deployment),
		stopC: make(chan struct{}),
	}
}

// Start launches the tick loop on the controller's clock. Safe to call
// once; subsequent calls are no-ops.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.running || c.stopped {
		c.mu.Unlock()
		return
	}
	c.running = true
	c.mu.Unlock()
	// Ticker created here, not in the goroutine, so a fake clock
	// advanced right after Start is guaranteed to reach it.
	t := c.opts.Clock.NewTicker(c.opts.TickInterval)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer t.Stop()
		for {
			select {
			case <-c.stopC:
				return
			case <-t.C():
				c.Tick()
			}
		}
	}()
}

// Stop halts the tick loop and marks the controller closed. In-flight
// remap jobs keep running in the jobs engine; their outcomes are
// simply never adopted. Deployment state stays queryable.
func (c *Controller) Stop() {
	c.mu.Lock()
	already := c.stopped
	c.stopped = true
	c.mu.Unlock()
	if !already {
		close(c.stopC)
	}
	c.wg.Wait()
}

// Register admits a deployment and returns its initial status. The
// mapping must be valid for the instance and the floor in (0, 1).
func (c *Controller) Register(spec Spec) (Status, error) {
	if spec.ID == "" {
		return Status{}, fmt.Errorf("fleet: deployment id required")
	}
	if err := cmp.Or(spec.Chain.Validate(), spec.Platform.Validate()); err != nil {
		return Status{}, fmt.Errorf("fleet: invalid instance: %w", err)
	}
	if err := spec.Mapping.Validate(spec.Chain, spec.Platform); err != nil {
		return Status{}, fmt.Errorf("fleet: invalid mapping: %w", err)
	}
	if spec.MinReliability <= 0 || spec.MinReliability >= 1 {
		return Status{}, fmt.Errorf("fleet: minReliability must be in (0, 1), got %g", spec.MinReliability)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return Status{}, ErrClosed
	}
	if _, dup := c.byID[spec.ID]; dup {
		return Status{}, fmt.Errorf("%w: %q", ErrExists, spec.ID)
	}
	if len(c.byID) >= c.opts.MaxDeployments {
		return Status{}, fmt.Errorf("%w (%d)", ErrFull, c.opts.MaxDeployments)
	}

	if spec.Seed == 0 {
		spec.Seed = 1 // the repo-wide alias, so remap i runs with 1+i
	}
	now := c.opts.Clock.Now()
	p := spec.Platform.P()
	pol := spec.Policy.withDefaults()
	d := &deployment{
		spec:       spec,
		pol:        pol,
		created:    now,
		cur:        spec.Mapping.Clone(),
		logFloor:   math.Log(spec.MinReliability),
		alive:      make([]bool, p),
		crashed:    make([]bool, p),
		lastBeat:   make([]time.Time, p),
		beatStreak: make([]int, p),
		win:        newWindow(pol.WindowSize),
		subs:       make(map[chan struct{}]struct{}),
	}
	for u := range d.alive {
		d.alive[u] = true
	}
	d.reevaluate()
	d.period = spec.Period
	if d.period <= 0 {
		d.period = d.eval.WorstPeriod
	}
	c.byID[spec.ID] = d
	c.order = append(c.order, d)
	c.logDecision(d, Decision{Time: now, Kind: DecisionRegistered, Proc: -1, Reliability: d.rel})
	return c.statusLocked(d, now), nil
}

// Deregister removes a deployment; false when the id is unknown.
// Subscribers are woken so SSE streams can observe the removal.
func (c *Controller) Deregister(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byID[id]
	if !ok {
		return false
	}
	delete(c.byID, id)
	for i, o := range c.order {
		if o == d {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for ch := range d.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return true
}

// Ingest buffers telemetry events for a deployment; they take effect,
// in order, at the next tick. It returns how many events were
// accepted (always all of them, or an error).
func (c *Controller) Ingest(id string, events []Event) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	p := d.spec.Platform.P()
	for i, ev := range events {
		switch ev.Type {
		case EventHeartbeat, EventCrash:
			if ev.Proc < 0 || ev.Proc >= p {
				return 0, fmt.Errorf("fleet: event %d: processor %d out of range [0, %d)", i, ev.Proc, p)
			}
		case EventFailures:
			if ev.Value < 0 || math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
				return 0, fmt.Errorf("fleet: event %d: failure count %g invalid", i, ev.Value)
			}
		default:
			return 0, fmt.Errorf("fleet: event %d: unknown type %q", i, ev.Type)
		}
	}
	d.pending = append(d.pending, events...)
	return len(events), nil
}

// Status returns one deployment's snapshot.
func (c *Controller) Status(id string) (Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byID[id]
	if !ok {
		return Status{}, false
	}
	return c.statusLocked(d, c.opts.Clock.Now()), true
}

// List returns every deployment's snapshot in registration order.
func (c *Controller) List() []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock.Now()
	out := make([]Status, 0, len(c.order))
	for _, d := range c.order {
		out = append(out, c.statusLocked(d, now))
	}
	return out
}

// Subscribe returns a coalescing one-element channel signalled on
// every new decision (and on deregistration); false when the id is
// unknown. Pair with Unsubscribe.
func (c *Controller) Subscribe(id string) (chan struct{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	ch := make(chan struct{}, 1)
	d.subs[ch] = struct{}{}
	return ch, true
}

// Unsubscribe detaches a Subscribe channel. A channel from an already
// deregistered deployment is simply forgotten.
func (c *Controller) Unsubscribe(id string, ch chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.byID[id]; ok {
		delete(d.subs, ch)
	}
}

// DecisionsSince returns the retained decisions with Seq > after,
// oldest first — the SSE resume path.
func (c *Controller) DecisionsSince(id string, after uint64) ([]Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	var out []Decision
	for _, dec := range d.decisions {
		if dec.Seq > after {
			out = append(out, dec)
		}
	}
	return out, true
}

// Stats is the controller-wide monitoring snapshot.
type Stats struct {
	Deployments int
	// Remaps counts submissions; Adopted, Suppressed (episodes) and
	// Failed partition their outcomes and non-outcomes.
	Remaps, Adopted, Suppressed, Failed uint64
}

// Stats reports the fleet-wide counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Deployments: len(c.byID),
		Remaps:      c.remaps,
		Adopted:     c.adopted,
		Suppressed:  c.suppressed,
		Failed:      c.failed,
	}
}

// Tick runs one control-loop pass over every deployment in
// registration order: apply buffered events, enforce heartbeat
// deadlines, poll in-flight remaps, re-evaluate reliability where
// state changed, and trigger (or suppress) remaps. An idle tick — no
// events, no deadline crossings, nothing in flight — allocates
// nothing.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock.Now()
	decisions := 0
	for _, d := range c.order {
		decisions += c.tickOne(d, now)
	}
	if c.opts.OnTick != nil {
		c.opts.OnTick(c.opts.Clock.Now().Sub(now), len(c.order), decisions)
	}
}

// tickOne advances one deployment and returns how many decisions it
// logged. Caller holds mu.
func (c *Controller) tickOne(d *deployment, now time.Time) int {
	before := d.seq

	// 1. Buffered telemetry, in arrival order.
	if len(d.pending) > 0 {
		for _, ev := range d.pending {
			c.applyEvent(d, now, ev)
		}
		d.pending = d.pending[:0]
	}

	// 2. Heartbeat deadlines: a reporting processor silent for K
	// intervals is declared dead.
	deadline := time.Duration(d.pol.MissedHeartbeats) * d.pol.HeartbeatInterval
	for u := range d.alive {
		if d.alive[u] && !d.lastBeat[u].IsZero() && now.Sub(d.lastBeat[u]) > deadline {
			d.alive[u] = false
			d.beatStreak[u] = 0
			d.dirty = true
			c.logDecision(d, Decision{Time: now, Kind: DecisionProcDead, Proc: u, Reason: "missed-heartbeats"})
		}
	}

	// 3. Poll the in-flight remap; adoption and failure both start the
	// cooldown.
	if d.inflight != nil {
		select {
		case out := <-d.inflight:
			d.inflight = nil
			d.cooldownUntil = now.Add(d.pol.Cooldown)
			c.finishRemap(d, now, out)
		default:
		}
	}

	// 4. Re-evaluate the masked mapping when something changed.
	if d.dirty {
		wasDrifting := d.drifting
		wasDown := d.down
		d.reevaluate()
		if d.down && !wasDown {
			c.logDecision(d, Decision{Time: now, Kind: DecisionDown, Proc: -1, Reliability: d.rel, Drift: d.spec.MinReliability - d.rel})
		} else if d.drifting && !wasDrifting {
			c.logDecision(d, Decision{Time: now, Kind: DecisionDrift, Proc: -1, Reliability: d.rel, Drift: d.spec.MinReliability - d.rel})
		}
	}

	// 5. Trigger: below floor, or a dead processor still holding a
	// replica. Guard rails first.
	want := (d.drifting || d.degraded) && d.inflight == nil
	if want {
		switch {
		case now.Before(d.cooldownUntil):
			c.suppress(d, now, "cooldown")
		case d.breakerActive(now):
			d.breakerOpen = true
			c.suppress(d, now, "breaker")
		default:
			d.breakerOpen = false
			d.suppressing = false
			c.submitRemap(d, now)
		}
	} else {
		d.suppressing = false
		if d.breakerOpen && !d.breakerActive(now) {
			d.breakerOpen = false
		}
	}
	return int(d.seq - before)
}

// applyEvent folds one telemetry event into liveness/baseline state.
// Caller holds mu.
func (c *Controller) applyEvent(d *deployment, now time.Time, ev Event) {
	switch ev.Type {
	case EventHeartbeat:
		u := ev.Proc
		if d.crashed[u] {
			return // crash reports are final
		}
		d.lastBeat[u] = now
		if !d.alive[u] {
			d.beatStreak[u]++
			if d.beatStreak[u] >= d.pol.RecoverHeartbeats {
				d.alive[u] = true
				d.beatStreak[u] = 0
				d.dirty = true
				c.logDecision(d, Decision{Time: now, Kind: DecisionProcRecovered, Proc: u})
			}
		}
	case EventCrash:
		u := ev.Proc
		d.crashed[u] = true
		if d.alive[u] {
			d.alive[u] = false
			d.dirty = true
			c.logDecision(d, Decision{Time: now, Kind: DecisionProcDead, Proc: u, Reason: "crash-report"})
		}
	case EventFailures:
		// Deviation check against the baseline *before* this sample
		// joins it, à la the rolling-baseline snippet.
		if d.win.count() >= d.pol.MinSamples {
			mean, sd := d.win.mean(), d.win.stddev()
			d.anomalous = sd > 0 && math.Abs(ev.Value-mean) > d.pol.AnomalySigma*sd
			if d.anomalous {
				d.dirty = true // anomaly forces a reliability recheck
				c.logDecision(d, Decision{Time: now, Kind: DecisionAnomaly, Proc: -1,
					Reason: fmt.Sprintf("failures %g vs baseline %.4g±%.4g", ev.Value, mean, sd)})
			}
		}
		d.win.push(ev.Value)
	}
}

// reevaluate recomputes the dead-masked evaluation and the derived
// down/degraded/drifting flags. Caller holds mu.
func (d *deployment) reevaluate() {
	d.dirty = false
	masked, whole, degraded := d.cur.Mask(d.alive)
	d.degraded = degraded
	if !whole {
		d.down = true
		d.drifting = true
		d.rel = 0
		d.eval = mapping.Eval{LogRel: math.Inf(-1), FailProb: 1}
		return
	}
	d.down = false
	d.eval = mapping.EvaluateUnchecked(d.spec.Chain, d.spec.Platform, masked)
	d.rel = math.Exp(d.eval.LogRel)
	d.drifting = d.eval.LogRel < d.logFloor
}

// suppress logs one suppression decision per episode (the latch resets
// when the trigger clears or a remap is submitted). Caller holds mu.
func (c *Controller) suppress(d *deployment, now time.Time, reason string) {
	if d.suppressing {
		return
	}
	d.suppressing = true
	d.nSuppressed++
	c.suppressed++
	c.logDecision(d, Decision{Time: now, Kind: DecisionSuppressed, Proc: -1, Reason: reason, Reliability: d.rel})
}

// breakerActive reports whether MaxRemaps submissions already happened
// inside the trailing BreakerWindow. Caller holds mu.
func (d *deployment) breakerActive(now time.Time) bool {
	return len(d.submitTimes) >= d.pol.MaxRemaps &&
		now.Sub(d.submitTimes[len(d.submitTimes)-d.pol.MaxRemaps]) < d.pol.BreakerWindow
}

// recordSubmit pushes a submission instant, keeping only what the
// breaker can ever consult. Caller holds mu.
func (d *deployment) recordSubmit(now time.Time) {
	d.submitTimes = append(d.submitTimes, now)
	if len(d.submitTimes) > d.pol.MaxRemaps {
		d.submitTimes = d.submitTimes[len(d.submitTimes)-d.pol.MaxRemaps:]
	}
}

// errNoSubmitter fails every remap of a controller built without a
// Submitter.
var errNoSubmitter = errors.New("no submitter configured")

// submitRemap hands a warm-started re-optimization to the Submitter.
// Caller holds mu.
func (c *Controller) submitRemap(d *deployment, now time.Time) {
	reason := "drift"
	if d.degraded {
		reason = "degraded"
	}
	r := Remap{
		DeploymentID: d.spec.ID,
		Chain:        d.spec.Chain,
		Platform:     d.spec.Platform,
		Alive:        append([]bool(nil), d.alive...),
		Mapping:      d.cur.Clone(),
		Period:       d.period,
		Latency:      d.spec.Latency,
		Restarts:     d.spec.Restarts,
		Budget:       d.spec.Budget,
		Seed:         d.spec.Seed + d.nRemaps,
		Reason:       reason,
	}
	d.recordSubmit(now)
	var ch <-chan RemapOutcome
	err := errNoSubmitter
	if c.opts.Submitter != nil {
		ch, err = c.opts.Submitter.SubmitRemap(r)
	}
	if err != nil {
		// Admission failure (no submitter, per-client cap, store full,
		// shutdown): open the breaker and back off a full cooldown.
		d.cooldownUntil = now.Add(d.pol.Cooldown)
		d.breakerOpen = true
		d.nFailed++
		c.failed++
		c.logDecision(d, Decision{Time: now, Kind: DecisionRemapFailed, Proc: -1, Reason: err.Error()})
		return
	}
	d.inflight = ch
	d.nRemaps++
	c.remaps++
	c.logDecision(d, Decision{Time: now, Kind: DecisionRemap, Proc: -1, Reason: reason, Reliability: d.rel})
}

// finishRemap folds a completed remap outcome into the deployment
// under search.Adopt: take the result when it meets the bounds, or
// when the system is down (any mapping beats none). Caller holds mu.
func (c *Controller) finishRemap(d *deployment, now time.Time, out RemapOutcome) {
	if out.Err != "" || !search.Adopt(out.Mapping, out.OK, !d.down) {
		reason := out.Err
		if reason == "" {
			if len(out.Mapping.Procs) == 0 {
				reason = "no mapping on survivors"
			} else {
				reason = "result misses bounds; keeping degraded mapping"
			}
		}
		d.nFailed++
		c.failed++
		c.logDecision(d, Decision{Time: now, Kind: DecisionRemapFailed, Proc: -1, Reason: reason})
		return
	}
	d.cur = out.Mapping.Clone()
	d.dirty = true
	d.reevaluate()
	d.nAdopted++
	c.adopted++
	c.logDecision(d, Decision{Time: now, Kind: DecisionAdopt, Proc: -1,
		Reliability: d.rel, Mapping: mapJSON(d.cur)})
}

// logDecision appends to the bounded decision log, notifies
// subscribers and fires the observability hook. Caller holds mu.
func (c *Controller) logDecision(d *deployment, dec Decision) {
	d.seq++
	dec.Seq = d.seq
	d.decisions = append(d.decisions, dec)
	if len(d.decisions) > d.pol.MaxDecisions {
		d.decisions = d.decisions[len(d.decisions)-d.pol.MaxDecisions:]
	}
	for ch := range d.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	if c.opts.OnDecision != nil {
		c.opts.OnDecision(d.spec.ID, dec)
	}
}

// statusLocked renders one deployment snapshot. Caller holds mu.
func (c *Controller) statusLocked(d *deployment, now time.Time) Status {
	st := Status{
		ID:               d.spec.ID,
		CreatedAt:        d.created,
		Mapping:          d.cur.Clone(),
		Reliability:      d.rel,
		Floor:            d.spec.MinReliability,
		Drifting:         d.drifting,
		Down:             d.down,
		Degraded:         d.degraded,
		Anomalous:        d.anomalous,
		BreakerOpen:      d.breakerOpen || d.breakerActive(now),
		CooldownUntil:    d.cooldownUntil,
		RemapInFlight:    d.inflight != nil,
		Remaps:           d.nRemaps,
		RemapsAdopted:    d.nAdopted,
		RemapsSuppressed: d.nSuppressed,
		RemapsFailed:     d.nFailed,
		Baseline: Baseline{
			Mean:   d.win.mean(),
			StdDev: d.win.stddev(),
			Count:  d.win.count(),
		},
		Decisions: append([]Decision(nil), d.decisions...),
	}
	if !d.down {
		st.LogRel = d.eval.LogRel
	}
	if n := d.win.count(); n > 0 {
		st.Baseline.Last = d.win.buf[(d.win.head-1+len(d.win.buf))%len(d.win.buf)]
	}
	for u := range d.alive {
		if !d.alive[u] {
			st.DeadProcs = append(st.DeadProcs, u)
		}
	}
	if d.spec.Mission > 0 && !d.down && d.period > 0 {
		if ms, err := mttf.MissionSurvival(d.eval.FailProb, d.period, d.spec.Mission); err == nil {
			st.MissionReliability = ms
		}
	}
	return st
}
