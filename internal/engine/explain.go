package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bgp"
	"repro/internal/dict"
)

// ExplainArms renders a human-readable description of the physical plan
// EvalArms would run for the given head and arms, arms listed in the order
// the pipeline evaluates and joins them (armPipeline, the function
// evalArms runs): per-arm member counts, scan leaves and the optimizer's
// row estimate, the sample bind-join order of each arm's first member,
// the key filter the arm runs under or why it has none, the arm-join
// algorithm, and the final projection — the engine's answer to an RDBMS
// EXPLAIN. name, if
// non-nil, renders dictionary constants (callers holding the dictionary
// pass a decoder; the engine itself only knows IDs).
func (e *Engine) ExplainArms(head []uint32, arms []ArmSource, name func(dict.ID) string) string {
	if name == nil {
		name = func(id dict.ID) string { return fmt.Sprintf("#%d", id) }
	}
	renderAtom := func(a bgp.Atom) string {
		term := func(t bgp.Term) string {
			if t.Var {
				return fmt.Sprintf("?v%d", t.ID)
			}
			return name(t.Const())
		}
		return term(a.S) + " " + term(a.P) + " " + term(a.O)
	}
	return e.explainArms(head, arms, renderAtom)
}

func (e *Engine) explainArms(head []uint32, arms []ArmSource, renderAtom func(bgp.Atom) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "JUCQ plan (profile %s, %s arm joins)\n", e.prof.Name, e.prof.ArmJoin)

	var leaves int64
	for _, a := range arms {
		leaves += a.Leaves
	}
	if e.prof.MaxPlanLeaves > 0 && leaves > e.prof.MaxPlanLeaves {
		fmt.Fprintf(&b, "  REJECTED: %d scan leaves exceed the profile limit of %d\n",
			leaves, e.prof.MaxPlanLeaves)
		return b.String()
	}

	stages := armPipeline(arms)
	joinSeq := make([]string, len(stages))
	for n, st := range stages {
		arm := arms[st.arm]
		joinSeq[n] = fmt.Sprintf("arm[%d]", st.arm)
		est := "no row estimate"
		if arm.EstRows > 0 {
			est = fmt.Sprintf("est. %.0f rows", arm.EstRows)
		}
		fmt.Fprintf(&b, "  arm[%d]: vars %s, %d member CQs, %d scan leaves, %s\n",
			st.arm, varList(arm.Vars), arm.NumCQs, arm.Leaves, est)
		var sample bgp.CQ
		var order []int
		arm.Each(func(cq bgp.CQ) bool {
			sample, order = cq, e.joinOrder(cq)
			parts := make([]string, len(order))
			for j, idx := range order {
				parts[j] = renderAtom(cq.Atoms[idx])
			}
			fmt.Fprintf(&b, "    sample member bind-join order: %s\n", strings.Join(parts, "  ->  "))
			return false
		})
		fmt.Fprintf(&b, "    %s\n", e.explainFilter(arms, stages[:n], st, sample, order))
	}
	if len(arms) > 1 {
		fmt.Fprintf(&b, "  arm join order: %s\n", strings.Join(joinSeq, " ⨝ "))
		if e.prof.ArmJoin == NestedLoopJoin {
			fmt.Fprintf(&b, "  note: nested-loop arm joins; cost is quadratic in arm sizes\n")
		}
	}
	fmt.Fprintf(&b, "  project on %s, eliminate duplicates\n", varList(head))
	fmt.Fprintf(&b, "  estimated cost: %.4g\n", e.EstimateArms(arms))
	return b.String()
}

// explainFilter says what key filter stage st runs under, given the stages
// before it and the arm's first member with its join order: evalStage's
// decision, with the key count bounded by a seeding arm's estimate where
// evaluation has the real one.
func (e *Engine) explainFilter(arms []ArmSource, before []armStage, st armStage, sample bgp.CQ, order []int) string {
	arm := arms[st.arm]
	switch {
	case len(before) == 0:
		return "unfiltered: first arm"
	case len(st.key) == 0:
		return "unfiltered: shares no variable with the join so far (cartesian product)"
	}
	if segs := segmentize(sample, order); segs != nil && !e.noFact {
		if cols, _, ok := headPlan(sample, segs); ok && keySegment(&keyFilter{cols: st.key}, cols) < 0 {
			return "unfiltered: the key spans two independent segments of a factorized arm"
		}
	}
	key := make([]uint32, len(st.key))
	for i, c := range st.key {
		key[i] = arm.Vars[c]
	}
	// Every earlier arm holding a key variable seeds the filter; one that
	// holds them all bounds the number of distinct keys by its own rows.
	var from []string
	bound := math.Inf(1)
	for _, b := range before {
		switch n := len(sharedCols(key, arms[b.arm].Vars)); {
		case n == len(key) && arms[b.arm].EstRows > 0:
			bound = min(bound, arms[b.arm].EstRows)
			fallthrough
		case n > 0:
			from = append(from, fmt.Sprintf("arm[%d]", b.arm))
		}
	}
	desc := fmt.Sprintf("%s from %s", strings.Trim(varList(key), "()"), strings.Join(from, ", "))
	switch {
	case math.IsInf(bound, 1):
		return "filter on " + desc
	case arm.EstRows > 0 && bound > arm.EstRows:
		return fmt.Sprintf("unfiltered: key %s may hold %.0f keys, more than the arm's estimated rows", desc, bound)
	}
	return fmt.Sprintf("filter on %s (≤ %.0f keys)", desc, bound)
}

func varList(vars []uint32) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("?v%d", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
