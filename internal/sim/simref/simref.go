// Package simref is the reference oracle of internal/sim: the original
// closure-per-event loop (engine.go), kept verbatim so tests can pin
// the flat-array engine of sim.Run and sim.RunBatch to it bit for bit
// (Results and traced Ops). Only tests and cmd/bench import it; CI
// checks that the library and the shipped binaries never link it.
package simref

import (
	"errors"
	"fmt"
	"math"

	"relpipe/internal/failure"
	"relpipe/internal/rng"
	"relpipe/internal/sim"
)

// linkKey identifies a serializing point-to-point channel.
type linkKey struct {
	boundary int // index of the interval whose output crosses the link
	src      int // sending replica index (-1 for the router side)
	dst      int // receiving replica index (-1 for the router side)
}

type runner struct {
	cfg      sim.Config
	eng      *engine
	rnd      *rng.Rand
	procFree map[int]float64
	linkFree map[linkKey]float64

	routerDone []map[int]bool // per boundary, data sets already forwarded
	done       []bool
	completion []float64

	compFail [][]float64 // [stage][replica] failure probability
	commFail []float64   // per boundary, per-hop failure probability
	commTime []float64   // per boundary, per-hop duration
	compTime [][]float64 // [stage][replica] compute duration
}

// Run executes one replication on the scalar event loop. Like sim.Run,
// a Seed of 0 aliases the default seed 1.
func Run(cfg sim.Config) (sim.Result, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return run(cfg)
}

// RunBatch runs replications sequentially, seeding replication r with
// the r-th draw of a master generator seeded with cfg.Seed (0 aliases
// 1) — the derivation sim.RunBatch uses.
func RunBatch(cfg sim.Config, replications int) (sim.BatchResult, error) {
	if replications <= 0 {
		return sim.BatchResult{}, errors.New("simref: replications must be positive")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	master := rng.New(cfg.Seed)
	var b sim.BatchResult
	for range replications {
		c := cfg
		c.Seed = master.Uint64()
		res, err := run(c)
		if err != nil {
			return sim.BatchResult{}, err
		}
		b.Runs = append(b.Runs, res)
		b.Seeds = append(b.Seeds, c.Seed)
	}
	return b, nil
}

// run is the original closure-based discrete-event loop.
func run(cfg sim.Config) (sim.Result, error) {
	if err := cfg.Chain.Validate(); err != nil {
		return sim.Result{}, err
	}
	if err := cfg.Platform.Validate(); err != nil {
		return sim.Result{}, err
	}
	if err := cfg.Mapping.Validate(cfg.Chain, cfg.Platform); err != nil {
		return sim.Result{}, err
	}
	if cfg.Period <= 0 {
		return sim.Result{}, errors.New("sim: Period must be positive")
	}
	if math.IsNaN(cfg.Period) || math.IsInf(cfg.Period, 0) {
		return sim.Result{}, errors.New("sim: Period must be finite")
	}
	if cfg.DataSets <= 0 {
		return sim.Result{}, errors.New("sim: DataSets must be positive")
	}
	if cfg.WarmUp < 0 || cfg.WarmUp >= cfg.DataSets {
		cfg.WarmUp = 0
	}

	r := &runner{
		cfg:      cfg,
		eng:      newEngine(),
		rnd:      rng.New(cfg.Seed),
		procFree: make(map[int]float64),
		linkFree: make(map[linkKey]float64),
		done:     make([]bool, cfg.DataSets),
	}
	m := cfg.Mapping
	nStages := len(m.Parts)
	r.completion = make([]float64, cfg.DataSets)
	r.routerDone = make([]map[int]bool, nStages) // boundary j = output of stage j
	for j := range r.routerDone {
		r.routerDone[j] = make(map[int]bool)
	}
	r.compFail = make([][]float64, nStages)
	r.compTime = make([][]float64, nStages)
	r.commFail = make([]float64, nStages)
	r.commTime = make([]float64, nStages)
	for j := 0; j < nStages; j++ {
		w := m.Parts.Work(cfg.Chain, j)
		out := m.Parts.Out(cfg.Chain, j)
		r.commTime[j] = cfg.Platform.CommTime(out)
		r.commFail[j] = failure.Prob(cfg.Platform.LinkFailRate, r.commTime[j])
		r.compFail[j] = make([]float64, len(m.Procs[j]))
		r.compTime[j] = make([]float64, len(m.Procs[j]))
		for i, u := range m.Procs[j] {
			r.compTime[j][i] = cfg.Platform.ComputeTime(u, w)
			r.compFail[j][i] = failure.Prob(cfg.Platform.Procs[u].FailRate, r.compTime[j][i])
		}
	}

	// Inject data sets at k·Period into every replica of stage 0.
	for d := 0; d < cfg.DataSets; d++ {
		d := d
		r.eng.At(float64(d)*cfg.Period, func() {
			for i := range m.Procs[0] {
				r.startCompute(0, i, d)
			}
		})
	}
	r.eng.Run()

	res := sim.Result{DataSets: cfg.DataSets}
	var prev float64
	var interAcc, interN float64
	seen := 0
	for d := 0; d < cfg.DataSets; d++ {
		if !r.done[d] {
			continue
		}
		res.Successes++
		res.Latencies = append(res.Latencies, r.completion[d]-float64(d)*cfg.Period)
		res.Completions = append(res.Completions, r.completion[d])
		if d >= cfg.WarmUp {
			if seen > 0 {
				interAcc += r.completion[d] - prev
				interN++
			}
			prev = r.completion[d]
			seen++
		}
	}
	if interN > 0 {
		res.SteadyPeriod = interAcc / interN
	} else {
		res.SteadyPeriod = math.NaN()
	}
	return res, nil
}

// fails samples one transient failure of probability p (always false when
// injection is disabled).
func (r *runner) fails(p float64) bool {
	return r.cfg.InjectFailures && r.rnd.Bernoulli(p)
}

// trace records op when a Trace is attached.
func (r *runner) trace(op sim.Op) {
	if r.cfg.Trace != nil {
		r.cfg.Trace.Ops = append(r.cfg.Trace.Ops, op)
	}
}

// startCompute queues data set d on replica i of stage j.
func (r *runner) startCompute(j, i, d int) {
	u := r.cfg.Mapping.Procs[j][i]
	start := math.Max(r.eng.Now(), r.procFree[u])
	finish := start + r.compTime[j][i]
	r.procFree[u] = finish
	r.eng.At(finish, func() {
		failed := r.fails(r.compFail[j][i])
		r.trace(sim.Op{
			Kind: sim.OpCompute, Stage: j, Replica: i, Proc: u,
			DataSet: d, Start: start, End: finish, Failed: failed,
		})
		if failed {
			return // the result of this data set is lost on this replica
		}
		r.emit(j, i, d)
	})
}

// emit handles a successful computation of data set d by replica i of
// stage j: completion at the last stage, or transmission of the interval
// output towards stage j+1.
func (r *runner) emit(j, i, d int) {
	nStages := len(r.cfg.Mapping.Parts)
	if j == nStages-1 {
		if !r.done[d] {
			r.done[d] = true
			r.completion[d] = r.eng.Now()
		}
		return
	}
	// Send towards the boundary-j router on this replica's own channel.
	k := linkKey{boundary: j, src: i, dst: -1}
	start := math.Max(r.eng.Now(), r.linkFree[k])
	arrive := start + r.commTime[j]
	r.linkFree[k] = arrive
	r.eng.At(arrive, func() {
		failed := r.fails(r.commFail[j])
		r.trace(sim.Op{
			Kind: sim.OpSend, Stage: j, Replica: i, Proc: -1,
			DataSet: d, Start: start, End: arrive, Failed: failed,
		})
		if failed {
			return // the message was corrupted in transit
		}
		r.routerForward(j, d)
	})
}

// routerForward delivers data set d across boundary j the first time a
// replica result reaches the router; later arrivals are ignored.
func (r *runner) routerForward(j, d int) {
	if r.routerDone[j][d] {
		return
	}
	r.routerDone[j][d] = true
	next := j + 1
	for i := range r.cfg.Mapping.Procs[next] {
		i := i
		switch r.cfg.Routing {
		case sim.OneHop:
			// The boundary was already charged on the sender side;
			// delivery is immediate.
			r.startCompute(next, i, d)
		case sim.TwoHop:
			k := linkKey{boundary: j, src: -1, dst: i}
			start := math.Max(r.eng.Now(), r.linkFree[k])
			arrive := start + r.commTime[j]
			r.linkFree[k] = arrive
			r.eng.At(arrive, func() {
				failed := r.fails(r.commFail[j])
				r.trace(sim.Op{
					Kind: sim.OpForward, Stage: j, Replica: i, Proc: -1,
					DataSet: d, Start: start, End: arrive, Failed: failed,
				})
				if failed {
					return
				}
				r.startCompute(next, i, d)
			})
		default:
			panic(fmt.Sprintf("sim: unknown routing mode %d", r.cfg.Routing))
		}
	}
}
