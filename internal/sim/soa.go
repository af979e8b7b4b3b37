package sim

// This file is the flat-array (struct-of-arrays) Monte-Carlo core, the
// one engine behind Run and RunBatch. It replaces the closure-per-event
// loop, which survives verbatim only as the test oracle
// internal/sim/simref: instead of one closure and one interface boxing
// per event and two map lookups per scheduling decision, events are
// fixed-size records in a hand-rolled binary heap, resource release
// times live in flat slices indexed by precomputed replica offsets,
// and the per-segment tables are shared by every replication of a
// batch, so a worker advances its shard through one warm state block.
//
// The heap holds only in-flight events. Data set d enters at d·Period
// (§2.2), so the injection stream is known in advance and already
// sorted: a cursor merges it in instead of pushing all DataSets
// injections up front, which would keep the heap several times larger
// than the handful of operations actually pending.
//
// Determinism contract: events are ordered by (time, scheduling
// sequence), the oracle's strict total order, and every RNG draw
// happens inside an event handler, so equal seeds give the oracle's
// Results and, when traced, its Op sequence bit for bit (the
// differential suite and FuzzSimSoA enforce this). Injections keep the
// oracle's sequence numbers 0..DataSets−1 and pushed events continue
// from DataSets, so on a time tie the cursor's injection goes first
// (`<=`, never `<`). A traced run keeps each operation's start time on
// a side slice indexed by sequence number, because finish − duration is
// not bit-exact; untraced runs leave it nil. Cross-replication lockstep
// is ruled out on purpose: a failed draw prunes downstream events, so
// the schedule is outcome-dependent and lockstep would change the draw
// order.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"relpipe/internal/failure"
	"relpipe/internal/rng"
)

// Event kinds of the flat engine, mirroring the oracle's closures:
// compute finish (draw + emit), sender-side link arrival (draw +
// router), router-side link arrival (TwoHop only: draw + next-stage
// compute). Injections never enter the heap; run merges them in.
const (
	soaCompute uint8 = iota
	soaSend
	soaFwd
)

// soaOpKind maps each operation-completing event kind to the traced Op
// kind.
var soaOpKind = [...]OpKind{soaCompute: OpCompute, soaSend: OpSend, soaFwd: OpForward}

// soaEvent is one pending event: fixed-size, no closures, no interface
// boxing. seq is the per-replication scheduling sequence — the same
// stable tie-break the oracle's engine applies — reset to DataSets for
// every replication (0..DataSets−1 belong to the injections).
type soaEvent struct {
	t    float64
	seq  int64
	d    int32 // data set
	j    int32 // stage (compute) or boundary (send/fwd)
	i    int32 // replica index within the stage
	kind uint8
}

// soaTables is the read-only per-batch precomputation shared by every
// replication (and, in RunBatch, by every worker): segment durations
// and failure probabilities flattened over replica offsets, plus the
// validated run parameters. Pure function of the Config minus its seed.
type soaTables struct {
	nStages  int
	procs    [][]int   // Mapping.Procs: replica processor ids per stage
	offset   []int     // offset[j] = first flat replica index of stage j; len nStages+1
	total    int       // total replicas (== offset[nStages])
	procN    int       // platform processor count (procFree size)
	compTime []float64 // flat [offset[j]+i]
	compFail []float64 // flat [offset[j]+i]
	commTime []float64 // per boundary j
	commFail []float64 // per boundary j
	period   float64
	dataSets int
	warmUp   int
	routing  RoutingMode
	inject   bool
}

// newSoaTables validates cfg and builds the shared tables.
func newSoaTables(cfg Config) (*soaTables, error) {
	if err := cfg.Chain.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mapping.Validate(cfg.Chain, cfg.Platform); err != nil {
		return nil, err
	}
	if cfg.Period <= 0 {
		return nil, errors.New("sim: Period must be positive")
	}
	if math.IsNaN(cfg.Period) || math.IsInf(cfg.Period, 0) {
		return nil, errors.New("sim: Period must be finite")
	}
	if cfg.DataSets <= 0 {
		return nil, errors.New("sim: DataSets must be positive")
	}
	if cfg.WarmUp < 0 || cfg.WarmUp >= cfg.DataSets {
		cfg.WarmUp = 0
	}
	m := cfg.Mapping
	nStages := len(m.Parts)
	t := &soaTables{
		nStages:  nStages,
		procs:    m.Procs,
		offset:   make([]int, nStages+1),
		procN:    cfg.Platform.P(),
		commTime: make([]float64, nStages),
		commFail: make([]float64, nStages),
		period:   cfg.Period,
		dataSets: cfg.DataSets,
		warmUp:   cfg.WarmUp,
		routing:  cfg.Routing,
		inject:   cfg.InjectFailures,
	}
	for j := 0; j < nStages; j++ {
		t.offset[j+1] = t.offset[j] + len(m.Procs[j])
	}
	t.total = t.offset[nStages]
	t.compTime = make([]float64, t.total)
	t.compFail = make([]float64, t.total)
	for j := 0; j < nStages; j++ {
		w := m.Parts.Work(cfg.Chain, j)
		out := m.Parts.Out(cfg.Chain, j)
		t.commTime[j] = cfg.Platform.CommTime(out)
		t.commFail[j] = failure.Prob(cfg.Platform.LinkFailRate, t.commTime[j])
		for i, u := range m.Procs[j] {
			t.compTime[t.offset[j]+i] = cfg.Platform.ComputeTime(u, w)
			t.compFail[t.offset[j]+i] = failure.Prob(cfg.Platform.Procs[u].FailRate, t.compTime[t.offset[j]+i])
		}
	}
	return t, nil
}

// soaEngine is the reusable per-worker state block: one event heap and
// one set of flat resource/outcome arrays, reset (not reallocated)
// between replications so a shard of replications runs allocation-free
// after the first.
type soaEngine struct {
	t   *soaTables
	ctx context.Context // polled inside the event loop; nil = no polling
	rnd *rng.Rand

	heap   []soaEvent // in-flight events only
	seq    int64
	trace  *Trace    // nil unless a single Run is traced
	starts []float64 // traced runs only: operation start time by event seq

	procFree   []float64 // by processor id: next instant the proc is free
	sendFree   []float64 // by flat replica index: sender-side channel free
	fwdFree    []float64 // by flat replica index: router-side channel free (TwoHop)
	routerDone []bool    // [boundary*dataSets + d]: first arrival already forwarded
	done       []bool    // per data set
	completion []float64 // per data set
}

func newSoaEngine(t *soaTables, ctx context.Context, trace *Trace) *soaEngine {
	return &soaEngine{
		t:          t,
		ctx:        ctx,
		trace:      trace,
		procFree:   make([]float64, t.procN),
		sendFree:   make([]float64, t.total),
		fwdFree:    make([]float64, t.total),
		routerDone: make([]bool, t.nStages*t.dataSets),
		done:       make([]bool, t.dataSets),
		completion: make([]float64, t.dataSets),
	}
}

// push schedules an event ending at t for an operation that started at
// start, assigning the next sequence number — the insertion-order
// tie-break that reproduces the oracle's stable event order.
func (e *soaEngine) push(start, t float64, kind uint8, j, i, d int) {
	if e.trace != nil {
		e.starts = append(e.starts, start)
	}
	h := append(e.heap, soaEvent{t: t, seq: e.seq, d: int32(d), j: int32(j), i: int32(i), kind: kind})
	e.seq++
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !soaLess(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	e.heap = h
}

// pop removes and returns the earliest event under the (t, seq) order.
func (e *soaEngine) pop() soaEvent {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && soaLess(h[r], h[c]) {
			c = r
		}
		if !soaLess(h[c], h[p]) {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	e.heap = h
	return top
}

func soaLess(a, b soaEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// record appends the operation ev completes to the trace, with the
// fields the oracle records: compute ops carry their processor,
// send/forward ops Proc -1 and the boundary as Stage.
func (e *soaEngine) record(ev soaEvent, failed bool) {
	proc := -1
	if ev.kind == soaCompute {
		proc = e.t.procs[ev.j][ev.i]
	}
	e.trace.add(Op{
		Kind: soaOpKind[ev.kind], Stage: int(ev.j), Replica: int(ev.i), Proc: proc,
		DataSet: int(ev.d), Start: e.starts[ev.seq], End: ev.t, Failed: failed,
	})
}

// startCompute books data set d on replica i of stage j: the processor
// is reserved at scheduling time (exactly like the oracle), the finish
// event draws the failure.
func (e *soaEngine) startCompute(now float64, j, i, d int) {
	u := e.t.procs[j][i]
	start := math.Max(now, e.procFree[u])
	finish := start + e.t.compTime[e.t.offset[j]+i]
	e.procFree[u] = finish
	e.push(start, finish, soaCompute, j, i, d)
}

// routerForward delivers data set d across boundary j on its first
// successful arrival; later arrivals are ignored.
func (e *soaEngine) routerForward(now float64, j, d int) {
	idx := j*e.t.dataSets + d
	if e.routerDone[idx] {
		return
	}
	e.routerDone[idx] = true
	next := j + 1
	if e.t.routing == OneHop {
		// The boundary was charged on the sender side; delivery is
		// immediate.
		for i := range e.t.procs[next] {
			e.startCompute(now, next, i, d)
		}
		return
	}
	if e.t.routing != TwoHop {
		// Lazily, like the oracle: a run that never crosses a
		// boundary never observes a bogus mode.
		panic(fmt.Sprintf("sim: unknown routing mode %d", e.t.routing))
	}
	for i := range e.t.procs[next] {
		fi := e.t.offset[next] + i
		start := math.Max(now, e.fwdFree[fi])
		arrive := start + e.t.commTime[j]
		e.fwdFree[fi] = arrive
		e.push(start, arrive, soaFwd, j, i, d)
	}
}

// run executes one replication with the given seed and returns its
// Result, bit-identical to the oracle's run of the same Config and seed.
// The context (when non-nil) is polled every 1024 events so a
// cancellation lands mid-replication, not just between replications.
func (e *soaEngine) run(seed uint64) (Result, error) {
	t := e.t
	e.rnd = rng.New(seed)
	e.heap = e.heap[:0]
	e.seq = int64(t.dataSets)
	e.starts = e.starts[:0]
	if e.trace != nil {
		// Injections own sequence numbers 0..DataSets−1, so starts
		// stays indexed by seq.
		for d := 0; d < t.dataSets; d++ {
			e.starts = append(e.starts, float64(d)*t.period)
		}
	}
	clear(e.procFree)
	clear(e.sendFree)
	clear(e.fwdFree)
	clear(e.routerDone)
	clear(e.done)
	clear(e.completion)

	last := t.nStages - 1
	var steps int64
	for next := 0; next < t.dataSets || len(e.heap) > 0; {
		if steps++; steps&1023 == 0 && e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// Injection next has sequence number next, below every pushed
		// event's, so it wins a time tie.
		if at := float64(next) * t.period; next < t.dataSets && (len(e.heap) == 0 || at <= e.heap[0].t) {
			for i := range t.procs[0] {
				e.startCompute(at, 0, i, next)
			}
			next++
			continue
		}
		ev := e.pop()
		now := ev.t
		j, i, d := int(ev.j), int(ev.i), int(ev.d)
		// Every heap event completes one operation and first samples
		// its transient failure — with the oracle's short-circuits (no
		// draw when injection is off or p is degenerate), so the RNG
		// streams stay aligned.
		p := t.commFail[j]
		if ev.kind == soaCompute {
			p = t.compFail[t.offset[j]+i]
		}
		failed := t.inject && e.rnd.Bernoulli(p)
		if e.trace != nil {
			e.record(ev, failed)
		}
		if failed {
			continue // the result is lost on this replica, or corrupted in transit
		}
		switch ev.kind {
		case soaCompute:
			if j == last {
				if !e.done[d] {
					e.done[d] = true
					e.completion[d] = now
				}
				continue
			}
			si := t.offset[j] + i
			start := math.Max(now, e.sendFree[si])
			arrive := start + t.commTime[j]
			e.sendFree[si] = arrive
			e.push(start, arrive, soaSend, j, i, d)
		case soaSend:
			e.routerForward(now, j, d)
		case soaFwd:
			e.startCompute(now, j+1, i, d)
		}
	}
	return e.aggregate(), nil
}

// aggregate folds the outcome arrays into a Result with exactly the
// oracle's fold order (latency append order, steady-period
// accumulation), so aggregates match bit for bit.
func (e *soaEngine) aggregate() Result {
	t := e.t
	res := Result{DataSets: t.dataSets}
	var prev float64
	var interAcc, interN float64
	seen := 0
	for d := 0; d < t.dataSets; d++ {
		if !e.done[d] {
			continue
		}
		res.Successes++
		res.Latencies = append(res.Latencies, e.completion[d]-float64(d)*t.period)
		res.Completions = append(res.Completions, e.completion[d])
		if d >= t.warmUp {
			if seen > 0 {
				interAcc += e.completion[d] - prev
				interN++
			}
			prev = e.completion[d]
			seen++
		}
	}
	if interN > 0 {
		res.SteadyPeriod = interAcc / interN
	} else {
		res.SteadyPeriod = math.NaN()
	}
	return res
}
