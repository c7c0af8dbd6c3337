package benchkit

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// SharedScanSweep measures the shared-scan layer (merged member scans,
// member families and cross-member planning memos over a pinned
// snapshot) on this database: for each named query it answers with the
// layer on and off, sequential and parallel, asserting that every
// configuration returns the same rows over the same members — the layer
// shares scans and probes, so the tuples it scans and the row order may
// differ — and reports the evaluation times alongside the merge and
// depth-0 range counters of a traced run. Empty queryNames sweeps the whole workload.
func (db *Database) SharedScanSweep(w io.Writer, queryNames []string, strat core.Strategy, warm int) error {
	if warm < 1 {
		warm = 3
	}
	if strat == "" {
		strat = core.UCQ
	}
	if len(queryNames) == 0 {
		for _, s := range db.Specs {
			queryNames = append(queryNames, s.Name)
		}
	}
	shared := db.Answerer(engine.Native, core.Options{Parallelism: 1})
	baseline := db.Answerer(engine.Native, core.Options{Parallelism: 1, NoSharedScan: true})
	sharedPar := db.Answerer(engine.Native, core.Options{})

	fmt.Fprintf(w, "%s: shared-scan sweep (strategy %s, %d warm runs)\n\n", db.Name, strat, warm)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Query\tRows\tShared\tBaseline\tSpeedup\tMerged members\tDepth-0 ranges\n")
	for _, name := range queryNames {
		qi := db.QueryIndex(name)
		if qi < 0 {
			return fmt.Errorf("benchkit: unknown query %q", name)
		}

		on := db.RunAveraged(shared, qi, strat, warm)
		off := db.RunAveraged(baseline, qi, strat, warm)
		if on.Failed() != off.Failed() {
			return fmt.Errorf("benchkit: %s: shared err=%v, baseline err=%v", name, on.Err, off.Err)
		}
		if on.Failed() {
			fmt.Fprintf(tw, "%s\t-\t%v\t%v\t-\t-\t-\n", name, on.Err, off.Err)
			continue
		}
		if on.Rows != off.Rows {
			return fmt.Errorf("benchkit: %s: shared returned %d rows, baseline %d", name, on.Rows, off.Rows)
		}
		if on.Report.Metrics.UnionArms != off.Report.Metrics.UnionArms {
			return fmt.Errorf("benchkit: %s: members diverge: shared %+v, baseline %+v",
				name, on.Report.Metrics, off.Report.Metrics)
		}
		par := db.Run(sharedPar, qi, strat)
		if par.Failed() {
			return fmt.Errorf("benchkit: %s parallel: %w", name, par.Err)
		}
		if par.Rows != on.Rows {
			return fmt.Errorf("benchkit: %s: parallel shared run diverges (rows %d vs %d)",
				name, par.Rows, on.Rows)
		}

		// The same answers: the reports above compare counts; this compares
		// the rows themselves.
		q := db.Encoded[qi]
		ansOn, err := shared.Answer(q, strat)
		if err != nil {
			return fmt.Errorf("benchkit: %s shared re-run: %w", name, err)
		}
		ansOff, err := baseline.Answer(q, strat)
		if err != nil {
			return fmt.Errorf("benchkit: %s baseline re-run: %w", name, err)
		}
		if !sameAnswer(ansOn, ansOff) {
			return fmt.Errorf("benchkit: %s: shared and baseline rows differ", name)
		}

		merged, ranges, err := db.sharedScanCounters(qi, strat)
		if err != nil {
			return err
		}
		speedup := float64(off.Evaluate) / float64(maxDuration(on.Evaluate, time.Nanosecond))
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.2fx\t%d\t%d\n",
			name, on.Rows,
			on.Evaluate.Round(time.Microsecond), off.Evaluate.Round(time.Microsecond),
			speedup, merged, ranges)
	}
	return tw.Flush()
}

// sharedScanCounters answers the query once under a trace and returns
// the evaluation's merged_members and snapshot_ranges registry counters.
func (db *Database) sharedScanCounters(qi int, strat core.Strategy) (merged, ranges int64, err error) {
	sp := trace.New("sharedscan")
	a := db.Answerer(engine.Native, core.Options{Parallelism: 1, Trace: sp})
	if _, err = a.Answer(db.Encoded[qi], strat); err != nil {
		return 0, 0, fmt.Errorf("benchkit: traced run: %w", err)
	}
	sp.End()
	snap := sp.Registry().Snapshot()
	return snap["merged_members"], snap["snapshot_ranges"], nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
