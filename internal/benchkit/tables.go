package benchkit

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/reformulate"
)

// atomQuery returns the single-atom query of atom i of q, with every
// variable of the atom distinguished (the paper's per-triple "#answers").
func atomQuery(q bgp.CQ, i int) bgp.CQ {
	a := q.Atoms[i]
	var head []bgp.Term
	seen := map[uint32]bool{}
	for _, t := range []bgp.Term{a.S, a.P, a.O} {
		if t.Var && !seen[t.ID] {
			seen[t.ID] = true
			head = append(head, t)
		}
	}
	return bgp.CQ{Head: head, Atoms: []bgp.Atom{a}}
}

// TripleCharacteristics renders the per-triple table of a motivating
// query (the paper's Tables 1 and 3): per triple, the number of answers,
// the number of reformulations, and the number of answers of the
// reformulated triple.
func (db *Database) TripleCharacteristics(w io.Writer, queryName string) error {
	qi := db.QueryIndex(queryName)
	if qi < 0 {
		return fmt.Errorf("benchkit: unknown query %q", queryName)
	}
	q := db.Encoded[qi]
	eng := engine.New(db.Raw, db.RawStats, engine.Native)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Triple\t#answers\t#reformulations\t#answers after reformulation\n")
	for i := range q.Atoms {
		aq := atomQuery(q, i)
		direct, _, err := eng.EvalCQ(aq)
		if err != nil {
			return err
		}
		ref, err := reformulate.Reformulate(aq, db.Closed)
		if err != nil {
			return err
		}
		u, err := ref.UCQ(0)
		if err != nil {
			return err
		}
		refd, _, err := eng.EvalUCQ(u)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "(t%d)\t%d\t%d\t%d\n", i+1, direct.Len(), ref.NumCQs(), refd.Len())
	}
	return tw.Flush()
}

// sweepRuns is how many timed evaluations of each cover CoverSweep takes
// the median of, after one untimed run that warms the caches and the
// allocator.
const sweepRuns = 7

// CoverSweep renders the paper's Table 2: every cover of the query, its
// total number of reformulations, and its execution time — the median
// of sweepRuns evaluations after an untimed one.
func (db *Database) CoverSweep(w io.Writer, queryName string, prof engine.Profile) error {
	qi := db.QueryIndex(queryName)
	if qi < 0 {
		return fmt.Errorf("benchkit: unknown query %q", queryName)
	}
	q := db.Encoded[qi]
	a := db.Answerer(prof, core.Options{})
	g, err := cover.NewGraph(q)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Cover\t#reformulations\texec time (ms)\n")
	var sweepErr error
	g.EnumerateMinimal(64, func(c cover.Cover) bool {
		var total int64
		for _, f := range c {
			sub := cover.Query(q, f)
			ref, err := reformulate.Reformulate(sub, db.Closed)
			if err != nil {
				sweepErr = fmt.Errorf("benchkit: reformulating fragment %s of %s: %w", f, queryName, err)
				return false
			}
			total += ref.NumCQs()
		}
		times := make([]time.Duration, 0, sweepRuns)
		for run := 0; run <= sweepRuns; run++ {
			ans, err := a.EvaluateCover(q, c, core.Report{Strategy: "fixed", Cover: c})
			if err != nil {
				// Engine-level failures are the point of the table (the
				// paper's missing bars), so they are rows, not errors.
				fmt.Fprintf(tw, "%s\t%d\t%s\n", c, total, failureLabel(err))
				return true
			}
			if run > 0 {
				times = append(times, ans.Report.EvalTime)
			}
		}
		slices.Sort(times)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\n", c, total, ms(times[sweepRuns/2]))
		return true
	})
	if err := tw.Flush(); err != nil {
		return err
	}
	return sweepErr
}

// QueryCharacteristics renders the paper's Table 4 for this database:
// per query, the UCQ reformulation size |q_ref| and the answer count.
func (db *Database) QueryCharacteristics(w io.Writer) error {
	a := db.Answerer(engine.Native, core.Options{})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s q\t|q_ref|\tq(db) (%d triples)\n", db.Name, db.Raw.Len())
	for i, spec := range db.Specs {
		sub := cover.Query(db.Encoded[i], cover.WholeQuery(len(db.Encoded[i].Atoms))[0])
		ref, err := reformulate.Reformulate(sub, db.Closed)
		if err != nil {
			return fmt.Errorf("benchkit: reformulating %s: %w", spec.Name, err)
		}
		refSize := ref.NumCQs()
		out := db.Run(a, i, core.GCov)
		if out.Failed() {
			fmt.Fprintf(tw, "%s\t%d\t%s\n", spec.Name, refSize, failureLabel(out.Err))
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\n", spec.Name, refSize, out.Rows)
	}
	return tw.Flush()
}

// failureLabel classifies a failure the way the paper's figures mark
// missing bars.
func failureLabel(err error) string {
	switch {
	case errors.Is(err, engine.ErrPlanTooComplex):
		return "FAIL(plan)"
	case errors.Is(err, engine.ErrMemoryBudget):
		return "FAIL(mem)"
	case errors.Is(err, engine.ErrWorkBudget):
		return "FAIL(timeout)"
	case err != nil:
		return "FAIL"
	default:
		return ""
	}
}
