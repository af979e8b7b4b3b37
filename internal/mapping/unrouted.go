package mapping

import (
	"fmt"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/platform"
)

// MaxUnroutedReplicas bounds the replica count of every interval the
// unrouted evaluation accepts. StageSystem.FailProb keeps one float per
// subset of a stage's replicas and does O(4^K·K) work per boundary, so
// K = 8 already costs about half a million products per boundary (the
// paper's K is 3–4), and K ≥ 64 would overflow the subset masks.
const MaxUnroutedReplicas = 8

// StageSystem is the unrouted reliability model of a replicated chain
// (Fig. 4): every replica of interval j sends its result directly to
// every replica of interval j+1 over its own link. Replica v of stage j+1
// delivers iff (a) at least one delivering replica u of stage j got its
// message through link (u,v) and (b) v's computation succeeds.
//
// The paper observes that such diagrams have no special form and that
// generic evaluation is exponential in the diagram size; for a *chain*,
// however, conditioning on the set of delivering replicas per stage gives
// an exact dynamic program that is exponential only in the per-stage
// replica count (bounded by K).
type StageSystem struct {
	// CompFail[j][i] is the computation failure probability of replica i
	// of stage j.
	CompFail [][]float64
	// LinkFail[j][u][v] is the failure probability of the link carrying
	// stage j's output from its replica u to replica v of stage j+1;
	// len(LinkFail) == len(CompFail)-1.
	LinkFail [][][]float64
}

// UnroutedFromMapping builds the Fig. 4 stage system of a mapping: each
// boundary crossed once, directly from senders to receivers (no routing
// hops). It rejects, before allocating anything, a mapping with an
// interval of more than MaxUnroutedReplicas replicas.
func UnroutedFromMapping(c chain.Chain, pl platform.Platform, m Mapping) (StageSystem, error) {
	for j, procs := range m.Procs {
		if len(procs) > MaxUnroutedReplicas {
			return StageSystem{}, fmt.Errorf("mapping: interval %d has %d replicas; the unrouted evaluation accepts at most %d", j, len(procs), MaxUnroutedReplicas)
		}
	}
	nStages := len(m.Parts)
	sys := StageSystem{
		CompFail: make([][]float64, nStages),
		LinkFail: make([][][]float64, nStages-1),
	}
	for j := range m.Parts {
		work := m.Parts.Work(c, j)
		sys.CompFail[j] = make([]float64, len(m.Procs[j]))
		for i, u := range m.Procs[j] {
			sys.CompFail[j][i] = failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work))
		}
	}
	for j := 0; j < nStages-1; j++ {
		out := m.Parts.Out(c, j)
		fLink := failure.Prob(pl.LinkFailRate, pl.CommTime(out))
		src, dst := len(m.Procs[j]), len(m.Procs[j+1])
		sys.LinkFail[j] = make([][]float64, src)
		for u := 0; u < src; u++ {
			sys.LinkFail[j][u] = make([]float64, dst)
			for v := 0; v < dst; v++ {
				sys.LinkFail[j][u][v] = fLink
			}
		}
	}
	return sys, nil
}

// FailProb computes the exact failure probability of the stage system by
// dynamic programming over delivering subsets: D_j(S) is the probability
// that exactly the replicas in S deliver stage j's result. Conditioned on
// S, the deliveries at stage j+1 are independent across receivers, so the
// transition factorizes. Complexity O(m · 4^K · K).
func (s StageSystem) FailProb() float64 {
	nStages := len(s.CompFail)
	if nStages == 0 {
		return 0
	}
	// Stage 0: replica i delivers iff its computation succeeds.
	k0 := len(s.CompFail[0])
	dist := make([]float64, 1<<k0)
	for set := 0; set < 1<<k0; set++ {
		p := 1.0
		for i := 0; i < k0; i++ {
			if set&(1<<i) != 0 {
				p *= 1 - s.CompFail[0][i]
			} else {
				p *= s.CompFail[0][i]
			}
		}
		dist[set] = p
	}
	for j := 0; j < nStages-1; j++ {
		kNext := len(s.CompFail[j+1])
		next := make([]float64, 1<<kNext)
		kCur := len(s.CompFail[j])
		for set, pSet := range dist {
			if pSet == 0 {
				continue
			}
			if set == 0 {
				// Lost: stays lost, fold into the empty set.
				next[0] += pSet
				continue
			}
			// pv[v] = probability that receiver v delivers given set.
			pv := make([]float64, kNext)
			for v := 0; v < kNext; v++ {
				allLinksFail := 1.0
				for u := 0; u < kCur; u++ {
					if set&(1<<u) != 0 {
						allLinksFail *= s.LinkFail[j][u][v]
					}
				}
				pv[v] = (1 - allLinksFail) * (1 - s.CompFail[j+1][v])
			}
			for t := 0; t < 1<<kNext; t++ {
				p := pSet
				for v := 0; v < kNext; v++ {
					if t&(1<<v) != 0 {
						p *= pv[v]
					} else {
						p *= 1 - pv[v]
					}
				}
				next[t] += p
			}
		}
		dist = next
	}
	return dist[0]
}
