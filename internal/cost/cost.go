// Package cost implements the cost model of the paper's Section 4.1: the
// estimated cost of evaluating a JUCQ reformulation through a relational
// engine, expressed over per-arm statistics (number of member CQs, total
// scanned tuples, estimated result size) and six calibrated constants.
//
// The model is (with q_k the largest-result arm, which is pipelined):
//
//	c(q_JUCQ) = c_db
//	          + Σ_i [ c_eval(qUCQ_i) ]           per-arm evaluation
//	          + c_join(qUCQ_1..m)                joining the arm results
//	          + c_mat(qUCQ_i, i≠k)               materializing all but q_k
//	          + c_unique(q_JUCQ)                 final duplicate elimination
//
//	c_eval(qUCQ)  = c_unique(qUCQ) + (c_t + c_j) · Σ_CQ Σ_{t∈CQ} |q_t|
//	c_join        = c_j · Σ_i |qUCQ_i|
//	c_mat         = c_m · Σ_{i≠k} |qUCQ_i|
//	c_unique(q)   = c_l · |q|                      (in-memory hashing)
//	              = c_k · |q| · log |q|            (past the spill threshold)
//
// The constants are engine-dependent; Calibrate fits them from timed
// micro-operations, reproducing the paper's per-RDBMS calibration queries.
package cost

import (
	"fmt"
	"math"
)

// Params holds the calibrated constants of the model for one engine.
type Params struct {
	CDB float64 // fixed per-query overhead (connection/setup)
	CT  float64 // per tuple scanned from an index
	CJ  float64 // per tuple entering or leaving a join
	CM  float64 // per tuple materialized
	CL  float64 // per tuple hashed for duplicate elimination
	CK  float64 // per tuple·log(tuples) once dedup spills to disk

	// SpillThreshold is the result size beyond which duplicate
	// elimination is priced as external (disk) sorting.
	SpillThreshold float64

	// NestedLoopArmJoin prices arm joins quadratically instead of
	// linearly — set for engine profiles without hash joins, where the
	// linear model of the paper badly underestimates SCQ-shaped plans.
	NestedLoopArmJoin bool

	// Provenance records how the constants were obtained ("default" or
	// "calibrated") so reports and tests can tell a fitted model from the
	// neutral one.
	Provenance string
}

// DefaultParams is a neutral parameterization (all unit weights) that
// orders plans sensibly before any calibration has run.
var DefaultParams = Params{
	CDB:            1000,
	CT:             1.0,
	CJ:             1.0,
	CM:             1.0,
	CL:             1.0,
	CK:             0.2,
	SpillThreshold: 1 << 20,
	Provenance:     "default",
}

// ArmStats summarizes one UCQ arm of a JUCQ for the model.
type ArmStats struct {
	// Arms is the number of member CQs (|qUCQ| as a union).
	Arms int64
	// ScanTuples is Σ_CQ Σ_{t∈CQ} |q_t|: tuples fetched to evaluate
	// every member.
	ScanTuples float64
	// ResultTuples is the estimated size of the arm's result.
	ResultTuples float64
}

// Unique prices duplicate elimination over n result tuples.
//
// Two edge cases matter here. A NaN estimate must not leak through: NaN
// fails every comparison, so `n <= 0` would NOT catch it and the NaN
// would poison cover cost comparisons (NaN ordering makes min-cost
// selection arbitrary). And past the spill threshold, log2(n) ≤ 0 for
// n < 2 — reachable with a tiny or zero SpillThreshold, e.g. during
// calibration — which would price dedup negatively.
// Both are clamped: non-positive (or NaN) sizes cost 0, and the spill
// branch charges at least one log factor per tuple.
func (p Params) Unique(n float64) float64 {
	if !(n > 0) { // catches NaN as well as n <= 0
		return 0
	}
	if n > p.SpillThreshold {
		return p.CK * n * math.Max(math.Log2(n), 1)
	}
	return p.CL * n
}

// JUCQ prices a join of UCQ arms. finalTuples is the estimated size of
// the overall (JUCQ) result, used for the final duplicate elimination;
// the original query's estimated cardinality is the natural value, since
// a JUCQ reformulation returns exactly the query's answer set.
func (p Params) JUCQ(arms []ArmStats, finalTuples float64) float64 {
	if len(arms) == 0 {
		return p.CDB
	}
	total := p.CDB

	// Per-arm evaluation: scans + in-arm joins + per-arm dedup.
	for _, a := range arms {
		total += (p.CT + p.CJ) * a.ScanTuples
		total += p.Unique(a.ResultTuples)
	}

	if len(arms) > 1 {
		// Arm join: linear in the inputs for hash/merge engines; the
		// product of the two largest inputs bounds nested-loop work.
		if p.NestedLoopArmJoin {
			first, second := 0.0, 0.0
			for _, a := range arms {
				if a.ResultTuples > first {
					first, second = a.ResultTuples, first
				} else if a.ResultTuples > second {
					second = a.ResultTuples
				}
			}
			total += p.CJ * first * math.Max(second, 1)
		} else {
			for _, a := range arms {
				total += p.CJ * a.ResultTuples
			}
		}

		// Materialization: every arm but the largest-result one, which
		// is pipelined.
		largest := 0
		for i, a := range arms {
			if a.ResultTuples > arms[largest].ResultTuples {
				largest = i
			}
		}
		for i, a := range arms {
			if i != largest {
				total += p.CM * a.ResultTuples
			}
		}
	}

	// Final duplicate elimination on the JUCQ result.
	total += p.Unique(finalTuples)
	return total
}

// UCQ prices a single-arm (plain union) reformulation.
func (p Params) UCQ(arm ArmStats) float64 {
	return p.JUCQ([]ArmStats{arm}, arm.ResultTuples)
}

// String renders the parameters compactly for reports.
func (p Params) String() string {
	s := fmt.Sprintf("c_db=%.3g c_t=%.3g c_j=%.3g c_m=%.3g c_l=%.3g c_k=%.3g spill=%.3g nl=%v",
		p.CDB, p.CT, p.CJ, p.CM, p.CL, p.CK, p.SpillThreshold, p.NestedLoopArmJoin)
	if p.Provenance != "" {
		s += " src=" + p.Provenance
	}
	return s
}
