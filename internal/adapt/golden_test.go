package adapt

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/golden"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/search"
)

// The digests below change only when a change moves answers on
// purpose; it records the new digest and says why in its change notes.
//
// batchGolden is the SHA-256 of TestBatchGolden's batches.
const batchGolden = "5dcb8543d8e180ecd60f01ffdfcae783dc91de805fd99b9b40189e929d83e03d"

// TestBatchGolden pins RunBatch byte for byte: every run (events,
// metrics, final mapping) of all four policies on seeded heterogeneous
// instances, identical at parallelism 1 and 8, hashed into one digest.
// Floats enter as %v text, the shortest decimal that round-trips, so a
// change of one bit moves the digest. The remap rows must really
// repair, or the digest would not cover the warm-started search.
func TestBatchGolden(t *testing.T) {
	remapRepairs := 0.0
	golden.Bytes(t, "RunBatch", golden.Digest(batchGolden), func(par int) []byte {
		var rows bytes.Buffer
		for _, seed := range []uint64{21, 22, 23} {
			c, pl, m := hetInstance(t, seed, 40, 16, 0, 0)
			for _, policy := range Policies() {
				opts := lifeOpts(policy)
				opts.Restarts, opts.Budget = 2, 300
				b, err := RunBatch(context.Background(), c, pl, m, opts, 6, par, nil)
				if err != nil {
					t.Fatalf("seed %d %v P=%d: %v", seed, policy, par, err)
				}
				sum := b.Summarize()
				fmt.Fprintf(&rows, "%d %v %v %v\n", seed, policy, b, sum)
				if policy == PolicyRemap {
					remapRepairs += sum.MeanRepairs
				}
			}
		}
		return rows.Bytes()
	})
	if remapRepairs == 0 {
		t.Fatal("remap rows never repaired; the digest would not cover the remap search")
	}
}

// repairGolden is the SHA-256 of TestRepairSweepGolden's repairs.
const repairGolden = "e4f2b326a68a752b9c6a38853e3deddd79da1aa45ffb81d59e5b487141c56442"

// TestRepairSweepGolden pins search.Repair, the one repair kernel of
// the remap policy and the fleet, byte for byte at search parallelism
// 1 and 8: seeded homogeneous and heterogeneous instances, each
// repaired after every single-processor loss, every loss of two
// neighbouring processors and the loss of a whole interval, hashed into
// one digest. Most losses leave every interval a survivor, so Repair
// warm-starts from the masked mapping; the sweep must contain such runs
// and cold ones.
func TestRepairSweepGolden(t *testing.T) {
	warm, cold := 0, 0
	golden.Bytes(t, "Repair sweep", golden.Digest(repairGolden), func(par int) []byte {
		var out bytes.Buffer
		warm, cold = 0, 0
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			c := chain.PaperRandom(r, 10+2*int(seed))
			pl := platform.PaperHomogeneous(12)
			if seed%2 == 1 {
				pl = platform.PaperHeterogeneous(r, 12)
			}
			start, _, err := search.Optimize(c, pl, search.Options{Restarts: 2, Budget: 400, Seed: seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			m0 := start.M
			opts := search.Options{Period: 1.5 * start.Ev.WorstPeriod, Restarts: 2, Budget: 400, Seed: seed, Parallelism: par}
			var masks [][]bool
			for u := range pl.P() {
				for _, width := range []int{1, 2} {
					alive := slices.Repeat([]bool{true}, pl.P())
					for k := range width {
						alive[(u+k)%pl.P()] = false
					}
					masks = append(masks, alive)
				}
			}
			alive := slices.Repeat([]bool{true}, pl.P())
			for _, u := range m0.Procs[0] {
				alive[u] = false
			}
			masks = append(masks, alive)
			for _, alive := range masks {
				if _, whole, _ := m0.Mask(alive); whole {
					warm++
				} else {
					cold++
				}
				res, ok, err := search.Repair(c, pl, m0, alive, opts)
				fmt.Fprintf(&out, "%d %v %v %v %v %v %+v\n", seed, alive, ok, err, res.M, res.Ev, res.Stats)
			}
		}
		return out.Bytes()
	})
	if warm == 0 || cold == 0 {
		t.Fatalf("sweep has %d warm-started and %d cold repairs, want both", warm, cold)
	}
}
