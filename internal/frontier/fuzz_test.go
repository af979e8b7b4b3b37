package frontier

import (
	"math"
	"slices"
	"testing"

	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
)

// fuzzPeriods, fuzzLatencies and fuzzLogRels are the values FuzzFront
// draws criteria from: few small integers, so ties and exact duplicates
// are common, plus the signed zero, the infinities and NaN.
var (
	fuzzPeriods   = []float64{0, 1, 2, 3, math.NaN()}
	fuzzLatencies = []float64{0, 1, 2, 3, math.Inf(1)}
	fuzzLogRels   = []float64{0, -1, -2, -3, math.Copysign(0, -1), math.Inf(-1), math.Inf(1), math.NaN()}
)

// decodeProfiles reads three bytes per profile, one per criterion. Each
// profile's Ends holds its input index, so results compare by identity.
func decodeProfiles(data []byte) []exact.Profile {
	ps := make([]exact.Profile, 0, len(data)/3)
	for i := 0; i+2 < len(data) && len(ps) < 256; i += 3 {
		ps = append(ps, exact.Profile{
			Ends:    []int{len(ps)},
			Period:  fuzzPeriods[int(data[i])%len(fuzzPeriods)],
			Latency: fuzzLatencies[int(data[i+1])%len(fuzzLatencies)],
			LogRel:  fuzzLogRels[int(data[i+2])%len(fuzzLogRels)],
		})
	}
	return ps
}

// ids lists the input indices a filter kept, in its output order; nil
// for a nil result.
func ids[T any](xs []T, ends func(T) []int) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, ends(x)[0])
	}
	return out
}

// allPairsDistinct is the candidate filter search.Frontier ran before
// Distinct: a candidate is dropped when another dominates it or an
// earlier one has an equal triple, every pair compared, then the
// survivors sorted. Its dominance test is the negation of
// "worse somewhere", which lets a NaN dominate; Distinct, like every
// filter on Front, lets a NaN neither dominate nor be dominated. The two
// agree on every NaN-free list, and search candidates are NaN-free: they
// are the metrics of mappings evaluated on a validated instance.
func allPairsDistinct(cands []Point) []Point {
	dominates := func(b, a Point) bool {
		if b.Period > a.Period || b.Latency > a.Latency || b.LogRel < a.LogRel {
			return false
		}
		return b.Period < a.Period || b.Latency < a.Latency || b.LogRel > a.LogRel
	}
	equal := func(b, a Point) bool {
		return b.Period == a.Period && b.Latency == a.Latency && b.LogRel == a.LogRel
	}
	pts := make([]Point, 0, len(cands))
	for i, a := range cands {
		dominated := false
		for k, b := range cands {
			if k == i {
				continue
			}
			if dominates(b, a) || (k < i && equal(b, a)) {
				dominated = true
				break
			}
		}
		if !dominated {
			pts = append(pts, a)
		}
	}
	sortPoints(pts)
	return pts
}

// notNaN replaces a NaN criterion with a value between the integers the
// fuzzer draws, keeping the list's ties and infinities.
func notNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 1.5
	}
	return v
}

// FuzzFront checks the archive filter against the all-pairs oracle
// exactref.Pareto — the same elements in the same order — and Distinct
// against the all-pairs candidate filter it replaced, on fuzzer-chosen
// lists of tie-heavy triples (NaN-free for the latter; see
// allPairsDistinct). The committed corpus in testdata/fuzz/FuzzFront
// replays in every plain `go test` run.
func FuzzFront(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 0, 2, 3, 2, 0, 3})
	f.Add([]byte{0, 0, 7, 0, 0, 7, 4, 0, 0, 1, 4, 5, 2, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := decodeProfiles(data)
		profileIDs := func(p exact.Profile) []int { return p.Ends }
		want := ids(exactref.Pareto(ps), profileIDs)
		if got := ids(Front(ps, exact.Profile.Criteria), profileIDs); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Front kept %v, exactref.Pareto kept %v", got, want)
		}

		cands := make([]Point, len(ps))
		for i, p := range ps {
			cands[i] = Point{Period: notNaN(p.Period), Latency: p.Latency, LogRel: notNaN(p.LogRel), Ends: p.Ends}
		}
		pointIDs := func(p Point) []int { return p.Ends }
		wantD := ids(allPairsDistinct(cands), pointIDs)
		if got := ids(Distinct(cands), pointIDs); !slices.Equal(got, wantD) {
			t.Fatalf("Distinct kept %v, the all-pairs filter kept %v", got, wantD)
		}
	})
}
