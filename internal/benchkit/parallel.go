package benchkit

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// ParallelismSweep times the GCov-chosen JUCQ per query at each worker
// count on the native profile, splitting the time the paper's way
// (optimize = cover search, evaluate = reformulation evaluation). The
// worker count sizes only the cover-pricing pools; evaluation is serial
// at every count, so the speedup column divides the first configuration's
// optimize time by the last one's.
func (db *Database) ParallelismSweep(w io.Writer, workers []int, warm int) error {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	// Drop duplicate worker counts (e.g. GOMAXPROCS(0) == a fixed entry).
	seen := make(map[int]bool)
	uniq := workers[:0:0]
	for _, p := range workers {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	workers = uniq
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query")
	for _, p := range workers {
		fmt.Fprintf(tw, "\topt p=%d\teval p=%d", p, p)
	}
	fmt.Fprintf(tw, "\topt speedup\n")
	for qi, spec := range db.Specs {
		fmt.Fprintf(tw, "%s", spec.Name)
		var base, widest time.Duration
		failed := false
		for i, p := range workers {
			a := db.Answerer(engine.Native, core.Options{
				SearchBudget: 30 * time.Second,
				Parallelism:  p,
			})
			out := db.RunAveraged(a, qi, core.GCov, warm)
			if out.Failed() {
				fmt.Fprintf(tw, "\t%s\t", failureLabel(out.Err))
				failed = true
				continue
			}
			fmt.Fprintf(tw, "\t%.2f\t%.2f", ms(out.Optimize), ms(out.Evaluate))
			if i == 0 {
				base = out.Optimize
			}
			widest = out.Optimize
		}
		if failed || widest <= 0 {
			fmt.Fprintf(tw, "\t-\n")
		} else {
			fmt.Fprintf(tw, "\t%.2fx\n", float64(base)/float64(widest))
		}
	}
	return tw.Flush()
}
