package search

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/frontier"
	"relpipe/internal/golden"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// frontierGoldenFile holds the pinned search.Frontier points of
// frontierGoldenCases, rendered by renderFrontier.
const frontierGoldenFile = "testdata/frontier_golden.txt"

type frontierGoldenCase struct {
	name string
	c    chain.Chain
	pl   platform.Platform
	opts Options
}

// frontierGoldenCases are seeded instances whose approximate frontiers
// are pinned point for point: two homogeneous platforms, one with few
// processors and a low replica bound so candidates tie often, and one
// heterogeneous platform.
func frontierGoldenCases() []frontierGoldenCase {
	r := rng.New(5)
	hom := chain.PaperRandom(r, 40)
	r = rng.New(7)
	het := chain.PaperRandom(r, 30)
	hetPl := platform.PaperHeterogeneous(r, 12)
	ties := chain.PaperRandom(rng.New(11), 16)
	return []frontierGoldenCase{
		{"hom-n40", hom, platform.PaperHomogeneous(10), Options{Seed: 1, Restarts: 3, Budget: 600}},
		{"het-n30", het, hetPl, Options{Seed: 2, Restarts: 3, Budget: 600}},
		{"ties-n16", ties, platform.Homogeneous(5, 1, 1e-3, 1, 1e-4, 2), Options{Seed: 3, Restarts: 2, Budget: 400}},
	}
}

// renderFrontier writes one line per point: period, latency, failure
// probability and log-reliability as the hex of their bits, then the
// interval ends and replica counts.
func renderFrontier(w *bytes.Buffer, name string, pts []frontier.Point) {
	fmt.Fprintf(w, "# %s: %d points\n", name, len(pts))
	for _, p := range pts {
		fmt.Fprintf(w, "%016x %016x %016x %016x ends=%v counts=%v\n",
			math.Float64bits(p.Period), math.Float64bits(p.Latency),
			math.Float64bits(p.FailProb), math.Float64bits(p.LogRel), p.Ends, p.Counts)
	}
}

// TestFrontierGolden compares every point of the pinned frontiers, each
// float by its bits, with the committed file, at search parallelism 1
// and 8. The test never rewrites the file.
func TestFrontierGolden(t *testing.T) {
	golden.Bytes(t, "search.Frontier points", golden.File(frontierGoldenFile), func(par int) []byte {
		var got bytes.Buffer
		for _, tc := range frontierGoldenCases() {
			tc.opts.Parallelism = par
			pts, err := Frontier(tc.c, tc.pl, tc.opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			renderFrontier(&got, tc.name, pts)
		}
		return got.Bytes()
	})
}
