package rbd

import "relpipe/internal/mapping"

// StageSystem converts the unrouted stage system of internal/mapping to
// a generic coherent System over its individual blocks (computations
// then links, stage by stage), so that the subset DP can be checked
// against exhaustive evaluation and cut-set analysis on small instances.
func StageSystem(s mapping.StageSystem) System {
	var fails []float64
	type compRef struct{ j, i int }
	type linkRef struct{ j, u, v int }
	compIdx := map[compRef]int{}
	linkIdx := map[linkRef]int{}
	for j, stage := range s.CompFail {
		for i, f := range stage {
			compIdx[compRef{j, i}] = len(fails)
			fails = append(fails, f)
		}
	}
	for j, boundary := range s.LinkFail {
		for u, row := range boundary {
			for v, f := range row {
				linkIdx[linkRef{j, u, v}] = len(fails)
				fails = append(fails, f)
			}
		}
	}
	operational := func(up []bool) bool {
		nStages := len(s.CompFail)
		delivering := make([]bool, len(s.CompFail[0]))
		any := false
		for i := range delivering {
			delivering[i] = up[compIdx[compRef{0, i}]]
			any = any || delivering[i]
		}
		if !any {
			return false
		}
		for j := 0; j < nStages-1; j++ {
			nextSet := make([]bool, len(s.CompFail[j+1]))
			any = false
			for v := range nextSet {
				if !up[compIdx[compRef{j + 1, v}]] {
					continue
				}
				for u := range delivering {
					if delivering[u] && up[linkIdx[linkRef{j, u, v}]] {
						nextSet[v] = true
						any = true
						break
					}
				}
			}
			if !any {
				return false
			}
			delivering = nextSet
		}
		return true
	}
	return System{Fails: fails, Operational: operational}
}
