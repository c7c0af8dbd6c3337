package benchkit

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/stats"
	"repro/internal/storage"
)

// AblationIndexSet compares the paper's six-permutation index layout with
// the minimal three-index layout: store build time and query evaluation
// on a subset of the workload (A1 in DESIGN.md).
func (db *Database) AblationIndexSet(w io.Writer, queryNames ...string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "layout\tbuild ms\t")
	for _, n := range queryNames {
		fmt.Fprintf(tw, "%s ms\t", n)
	}
	fmt.Fprintln(tw)

	for _, layout := range []struct {
		name   string
		orders []storage.Order
	}{
		{"3 indexes (SPO,POS,OSP)", storage.DefaultOrders},
		{"6 indexes (paper)", storage.AllOrders},
	} {
		start := time.Now()
		b := storage.NewBuilder(layout.orders...)
		db.Raw.Each(func(t storage.Triple) bool {
			b.Add(t)
			return true
		})
		st := b.Build()
		build := time.Since(start)
		eng := engine.New(st, stats.Collect(st, db.Vocab), engine.Native)
		a := core.NewAnswerer(db.Closed, eng, nil, core.Options{})

		fmt.Fprintf(tw, "%s\t%.1f\t", layout.name, ms(build))
		for _, n := range queryNames {
			qi := db.QueryIndex(n)
			if qi < 0 {
				fmt.Fprintf(tw, "?\t")
				continue
			}
			out := timeAnswer(a, db, qi, core.GCov)
			fmt.Fprintf(tw, "%.1f\t", out)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func timeAnswer(a *core.Answerer, db *Database, qi int, s core.Strategy) float64 {
	ans, err := a.Answer(db.Encoded[qi], s)
	if err != nil {
		return -1
	}
	return ms(ans.Report.EvalTime)
}

// AblationJoinOrdering compares greedy statistics-driven join ordering
// inside member CQs against textual atom order (A2).
func (db *Database) AblationJoinOrdering(w io.Writer, queryNames ...string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "ordering\t")
	for _, n := range queryNames {
		fmt.Fprintf(tw, "%s ms\t", n)
	}
	fmt.Fprintln(tw)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"greedy (default)", false}, {"textual order", true}} {
		prof := engine.Native
		prof.Name = "native-" + mode.name
		prof.DisableJoinOrdering = mode.disable
		a := db.Answerer(prof, core.Options{Params: db.calibrated(engine.Native)})
		fmt.Fprintf(tw, "%s\t", mode.name)
		for _, n := range queryNames {
			qi := db.QueryIndex(n)
			fmt.Fprintf(tw, "%.1f\t", timeAnswer(a, db, qi, core.GCov))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationArmJoin evaluates the SCQ reformulation of the given queries
// under each arm-join algorithm (A4) — the isolated mechanism behind the
// MySQL-like profile's SCQ collapse.
func (db *Database) AblationArmJoin(w io.Writer, queryNames ...string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "arm join\t")
	for _, n := range queryNames {
		fmt.Fprintf(tw, "%s ms\t", n)
	}
	fmt.Fprintln(tw)
	for _, algo := range []engine.JoinAlgorithm{engine.HashJoin, engine.MergeJoin, engine.NestedLoopJoin} {
		prof := engine.Profile{Name: "ablate-" + algo.String(), ArmJoin: algo,
			WorkBudget: engine.MySQLLike.WorkBudget}
		a := db.Answerer(prof, core.Options{})
		fmt.Fprintf(tw, "%s\t", algo)
		for _, n := range queryNames {
			qi := db.QueryIndex(n)
			out := db.Run(a, qi, core.SCQ)
			if out.Failed() {
				fmt.Fprintf(tw, "%s\t", failureLabel(out.Err))
			} else {
				fmt.Fprintf(tw, "%.1f\t", ms(out.Evaluate))
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationFactorizedReformulation compares the factorized reformulation
// representation against materializing the full UCQ (A5): the count/cost
// quantities GCov needs are available in microseconds from the factorized
// form, while materialization grows with |q_ref|.
func (db *Database) AblationFactorizedReformulation(w io.Writer, queryNames ...string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\t|q_ref|\tfactorized ms\tmaterialized ms\n")
	for _, n := range queryNames {
		qi := db.QueryIndex(n)
		q := db.Encoded[qi]
		whole := cover.Query(q, cover.WholeQuery(len(q.Atoms))[0])

		start := time.Now()
		ref, err := reformulate.Reformulate(whole, db.Closed)
		if err != nil {
			return fmt.Errorf("benchkit: reformulating %s: %w", n, err)
		}
		nCQs := ref.NumCQs()
		factorized := time.Since(start)

		start = time.Now()
		_, err = ref.UCQ(0)
		materialized := time.Since(start)
		matLabel := fmt.Sprintf("%.2f", ms(materialized))
		if err != nil {
			matLabel = "too large"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%s\n", n, nCQs, ms(factorized), matLabel)
	}
	return tw.Flush()
}
