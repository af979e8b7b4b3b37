package mapping

// FuzzEvalDelta is the differential fuzz target of the incremental
// evaluator: the fuzzer picks an instance (via seed) and a move script,
// and the Score of every Apply along the resulting commit/revert walk
// must agree bit-for-bit with a from-scratch EvaluateUnchecked of the
// neighbor.
// The seed corpus under testdata/fuzz/FuzzEvalDelta covers each of the
// seven neighborhood kinds and replays in every ordinary `go test` run;
// CI additionally runs the target under -fuzz for a fixed budget.

import (
	"testing"

	"relpipe/internal/rng"
)

func FuzzEvalDelta(f *testing.F) {
	f.Add(uint64(1), []byte("\x00\x01\x02\x01"))
	f.Add(uint64(42), []byte("\x03\x05\x07\x00\x04\x02\x01\x01\x05\x00\x03\x00"))
	f.Add(uint64(7), []byte("\x01\x00\x00\x01\x02\x01\x03\x00\x06\x02\x05\x01"))
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		r := rng.New(seed)
		c, pl, m := randomSetup(r)
		ev := NewEvaluator(c, pl, NewLinks(c, pl))
		if scoreBits(ev.Init(m)) != fullScore(c, pl, m) {
			t.Fatalf("Init diverges from full evaluation on seed %d", seed)
		}
		// Each move consumes four script bytes: neighborhood kind, two
		// choice steerers, and the commit/revert bit.
		for step := 0; len(script) >= 4; step++ {
			kind, x, y := int(script[0])%7, int(script[1]), int(script[2])
			commit := script[3]&1 == 1
			script = script[4:]
			nm, touched, ok := neighborMove(pl, m, kind, x, y)
			if !ok {
				continue
			}
			if err := nm.Validate(c, pl); err != nil {
				t.Fatalf("step %d: neighborMove kind %d built an invalid mapping: %v", step, kind, err)
			}
			got, want := ev.Apply(nm, touched), EvaluateUnchecked(c, pl, nm)
			if scoreBits(got) != scoreBits(want.Score()) {
				t.Fatalf("step %d (kind %d, commit %v): delta eval %+v diverges from full eval %+v",
					step, kind, commit, got, want)
			}
			if commit {
				ev.Commit()
				m = nm
			} else {
				ev.Revert()
			}
		}
	})
}
