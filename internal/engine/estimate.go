package engine

import (
	"repro/internal/bgp"
)

// EstimateArms is the engine's *internal* cost estimate for a join of UCQ
// arms — the counterpart of asking Postgres for an EXPLAIN of the
// cover-based reformulation, which the paper uses as the alternative cost
// source in its Figure 9 comparison. It prices the physical plan the
// engine would actually run: bind-joins per member CQ in the greedy atom
// order (each level's scans multiplied by the estimated bindings arriving
// from the previous level), duplicate elimination per arm, and the
// arm-join algorithm of the profile (nested-loop arm joins are priced
// quadratically, which is what makes the internal estimate engine-aware
// in a way the paper's generic cost model is not). It is EstimateJoin
// over each arm's EstimateArm.
func (e *Engine) EstimateArms(arms []ArmSource) float64 {
	ests := make([]ArmEstimate, len(arms))
	for i, arm := range arms {
		ests[i] = e.EstimateArm(arm)
	}
	return e.EstimateJoin(ests)
}

// ArmEstimate is the internal estimate of one arm: the summed bind-join
// cost and result cardinality of its members.
type ArmEstimate struct{ Cost, Card float64 }

// EstimateArm estimates one arm. It depends only on the arm, so a caller
// pricing many joins of the same arms can estimate each arm once.
func (e *Engine) EstimateArm(arm ArmSource) ArmEstimate {
	var est ArmEstimate
	arm.Each(func(cq bgp.CQ) bool {
		c, card := e.estimateMember(cq)
		est.Cost += c
		est.Card += card
		return true
	})
	return est
}

// EstimateJoin prices the join of estimated arms: duplicate elimination
// per arm, then the profile's arm joins.
func (e *Engine) EstimateJoin(arms []ArmEstimate) float64 {
	total := 0.0
	for _, arm := range arms {
		// Duplicate elimination over the arm's result.
		total += arm.Cost + arm.Card
	}
	// Arm joins: sizes combine pairwise in increasing order.
	if len(arms) > 1 {
		cur := arms[0].Card
		for _, arm := range arms[1:] {
			s := arm.Card
			switch e.prof.ArmJoin {
			case NestedLoopJoin:
				total += cur * s
			case MergeJoin:
				total += cur*log2(cur) + s*log2(s)
			default:
				total += cur + s
			}
			// Output estimate: optimistic containment join.
			if s < cur {
				cur = s
			}
		}
		total += cur // final projection/dedup
	}
	return total
}

// estimateMember prices one member CQ's bind-join: the first atom is a
// full pattern scan; each later atom is probed once per estimated binding
// of the prefix, at its bound-discounted cardinality.
func (e *Engine) estimateMember(cq bgp.CQ) (cost, card float64) {
	order := e.joinOrder(cq)
	bound := make(map[uint32]bool)
	bindings := 1.0
	cost = 0.0
	var buf []uint32 // scratch, reused across atoms
	for _, idx := range order {
		a := cq.Atoms[idx]
		per := e.st.AtomCard(a)
		buf = a.Vars(buf[:0])
		for j, v := range buf {
			if bound[v] && !dupBefore(buf, j) {
				if d := e.st.DistinctForVar(a, v); d > 1 {
					per /= d
				}
			}
		}
		cost += bindings * maxf(per, 1)
		bindings *= maxf(per, 0.001)
		for _, v := range buf {
			bound[v] = true
		}
	}
	return cost, bindings
}

func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
