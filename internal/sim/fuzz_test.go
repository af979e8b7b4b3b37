package sim_test

// FuzzSimSoA is the differential fuzz target of the flat-array engine:
// the fuzzer picks an instance shape (task count, platform size,
// partition, replica counts, routing, period, warm-up, failure
// injection) from the script bytes and the continuous values (works,
// output sizes, speeds, failure rates) from the seed, then requires the
// SoA engine and the scalar reference loop (simref) to agree
// bit-for-bit on every Result field and, on a traced rerun, on every
// recorded Op. The seed corpus under testdata/fuzz/FuzzSimSoA replays
// in every ordinary `go test` run; CI additionally runs the target
// under -fuzz for a fixed budget (see .github/workflows/ci.yml).

import (
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/sim"
	"relpipe/internal/sim/simref"
)

// fuzzConfig decodes a simulation Config from a seed and a script. The
// decoding is total over scripts of length >= 8 + one byte per stage
// boundary/replica decision: structural choices come from the script
// (so the corpus can pin specific shapes), continuous values from the
// seed's RNG stream. ok is false when the script is too short.
func fuzzConfig(seed uint64, script []byte) (sim.Config, bool) {
	if len(script) < 8 {
		return sim.Config{}, false
	}
	r := rng.New(seed)
	nTasks := 1 + int(script[0])%5
	nProcs := 1 + int(script[1])%6
	maxReplicas := 1 + int(script[2])%3
	routing := sim.RoutingMode(int(script[3]) % 2)
	inject := script[4]&1 == 1
	dataSets := 1 + int(script[5])%60
	period := 1 + float64(int(script[6])%40)/4
	warmUp := int(script[4]>>1) % dataSets
	script = script[7:]

	c := make(chain.Chain, nTasks)
	for i := range c {
		c[i] = chain.Task{Work: 1 + 19*r.Float64(), Out: 10 * r.Float64()}
	}
	c[nTasks-1].Out = 0

	procs := make([]platform.Processor, nProcs)
	for u := range procs {
		procs[u] = platform.Processor{Speed: 0.5 + 3.5*r.Float64(), FailRate: 0.1 * r.Float64()}
	}
	pl := platform.Platform{
		Procs:        procs,
		Bandwidth:    0.5 + 3.5*r.Float64(),
		LinkFailRate: 0.05 * r.Float64(),
		MaxReplicas:  maxReplicas,
	}

	// Partition: nStages <= min(nTasks, nProcs) so every interval can
	// hold at least one of the pairwise-disjoint processor sets; cut
	// points are steered by one script byte per boundary.
	maxStages := nTasks
	if nProcs < maxStages {
		maxStages = nProcs
	}
	nStages := 1 + int(script[0])%maxStages
	script = script[1:]
	ends := make([]int, nStages)
	next := 0
	for j := 0; j < nStages; j++ {
		// Leave room for the remaining nStages-1-j intervals.
		slack := nTasks - 1 - (nStages - 1 - j) - next
		take := 0
		if slack > 0 && len(script) > 0 {
			take = int(script[0]) % (slack + 1)
			script = script[1:]
		}
		next += take
		ends[j] = next
		next++
	}
	ends[nStages-1] = nTasks - 1

	// Replicas: hand out processors 0,1,2,… so sets stay disjoint,
	// reserving one processor for each remaining interval.
	ps := make([][]int, nStages)
	u := 0
	for j := range ps {
		budget := nProcs - u - (nStages - 1 - j)
		if budget > maxReplicas {
			budget = maxReplicas
		}
		k := 1
		if budget > 1 && len(script) > 0 {
			k = 1 + int(script[0])%budget
			script = script[1:]
		}
		for range k {
			ps[j] = append(ps[j], u)
			u++
		}
	}

	return sim.Config{
		Chain:    c,
		Platform: pl,
		Mapping:  mapping.Mapping{Parts: interval.FromEnds(ends), Procs: ps},
		Period:   period,
		DataSets: dataSets,
		Seed:     seed,
		Routing:  routing,
		WarmUp:   warmUp,

		InjectFailures: inject,
	}, true
}

func FuzzSimSoA(f *testing.F) {
	f.Add(uint64(1), []byte("\x03\x04\x02\x00\x01\x20\x10\x01\x00\x01"))
	f.Add(uint64(42), []byte("\x02\x05\x03\x01\x07\x3b\x04\x02\x01\x02\x01"))
	f.Add(uint64(7), []byte("\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		cfg, ok := fuzzConfig(seed, script)
		if !ok {
			t.Skip("script too short")
		}
		if err := cfg.Mapping.Validate(cfg.Chain, cfg.Platform); err != nil {
			t.Fatalf("decoder built an invalid mapping: %v", err)
		}
		got, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("SoA run: %v", err)
		}
		want, err := simref.Run(cfg)
		if err != nil {
			t.Fatalf("scalar run: %v", err)
		}
		requireSameResult(t, "fuzz", got, want)
		requireSameTracedRun(t, "fuzz", cfg, want)
	})
}
