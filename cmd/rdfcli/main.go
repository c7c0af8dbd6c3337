// Rdfcli loads an RDF database from N-Triples files and answers SPARQL
// BGP queries with any of the five strategies of the reproduction,
// printing the answers and a report of how they were computed.
//
// Usage:
//
//	rdfcli -data lubm.nt -strategy gcov -query 'SELECT ?x WHERE { ... }'
//	rdfcli -data lubm.nt -strategy ucq -queryfile q.sparql -profile db2like
//	rdfcli -data lubm.nt -explain -query '...'   # optimizer output only
//	rdfcli -data lubm.nt -trace -query '...'     # EXPLAIN ANALYZE-style span tree
//	rdfcli -data lubm.nt -cache 256 -repeat 5 -query '...'  # plan-cache warm-up
//	rdfcli -data lubm.nt -feedback -repeat 5 -trace -query '...'
//	                                             # adaptive cost model: the trace
//	                                             # shows est_* next to observed counters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/rdf"
)

func main() {
	data := flag.String("data", "", "comma-separated N-Triples files to load")
	queryText := flag.String("query", "", "SPARQL BGP query text")
	queryFile := flag.String("queryfile", "", "file containing the query")
	strategy := flag.String("strategy", "gcov", "saturation, ucq, scq, ecov or gcov")
	profile := flag.String("profile", "native", "engine profile: native, postgreslike, db2like or mysqllike")
	explain := flag.Bool("explain", false, "show the chosen cover and estimated cost without evaluating")
	calibrate := flag.Bool("calibrate", false, "calibrate the cost model on this store before answering")
	maxRows := flag.Int("maxrows", 20, "answers to print (0 = all)")
	traceFlag := flag.Bool("trace", false, "print the query-lifecycle span tree and counters after the answers")
	traceJSON := flag.Bool("tracejson", false, "with -trace, emit only the span tree as JSON on stdout (suppresses the answer table)")
	parallelism := flag.Int("parallel", 0, "worker count for cover pricing; evaluation is always serial (0 = all CPUs, 1 = sequential)")
	noSharedScan := flag.Bool("nosharedscan", false, "disable the shared-scan layer (merged member scans + member families + cross-member planning memos)")
	cacheCap := flag.Int("cache", 0, "plan-cache capacity in entries (0 = cache off)")
	repeat := flag.Int("repeat", 1, "answer the query N times (with -cache, runs after the first hit the cache)")
	feedbackFlag := flag.Bool("feedback", false, "feed observed cardinalities and timings back into the cost model (pairs well with -repeat and -trace)")
	flag.Parse()

	if *data == "" {
		fmt.Fprintln(os.Stderr, "rdfcli: -data is required")
		os.Exit(2)
	}
	text := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		text = string(b)
	}
	if text == "" {
		fmt.Fprintln(os.Stderr, "rdfcli: provide -query or -queryfile")
		os.Exit(2)
	}
	// Validate the name-valued flags before the (possibly long) load, and
	// reject unknown names outright — a typo like -strategy gcv must not
	// silently answer with some other strategy.
	strat, ok := repro.StrategyByName(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "rdfcli: unknown strategy %q (valid: %s)\n", *strategy, strings.Join(repro.StrategyNames(), ", "))
		os.Exit(2)
	}
	prof, ok := repro.ProfileByName(*profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "rdfcli: unknown profile %q (valid: %s)\n", *profile, strings.Join(repro.ProfileNames(), ", "))
		os.Exit(2)
	}

	st := repro.NewStore()
	start := time.Now()
	total := 0
	for _, path := range strings.Split(*data, ",") {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		n, err := st.LoadNTriples(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		total += n
	}
	st.Freeze()
	fmt.Fprintf(os.Stderr, "loaded %d triples in %v (store: %d)\n", total, time.Since(start).Round(time.Millisecond), st.NumTriples())

	if strat == repro.Saturation {
		start = time.Now()
		added := st.Saturate()
		fmt.Fprintf(os.Stderr, "saturated: +%d implicit triples in %v\n", added, time.Since(start).Round(time.Millisecond))
	}

	var tr *repro.Trace
	if *traceFlag {
		tr = repro.NewTrace("query")
	}
	var pc *repro.PlanCache
	if *cacheCap > 0 {
		pc = repro.NewPlanCache(*cacheCap)
	}
	var fb *repro.FeedbackLoop
	if *feedbackFlag {
		fb = repro.NewFeedbackLoop()
	}
	a := st.NewAnswerer(prof, repro.Options{
		Calibrate:    *calibrate,
		Parallelism:  *parallelism,
		NoSharedScan: *noSharedScan,
		Trace:        tr,
		PlanCache:    pc,
		Feedback:     fb,
	})

	if *explain {
		rep, err := a.Explain(text, strat)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("strategy:        %s\n", rep.Strategy)
		fmt.Printf("cover:           %v\n", rep.Cover)
		fmt.Printf("fragment |q_ref|: %v (total %d)\n", rep.FragmentCQs, rep.TotalCQs)
		fmt.Printf("estimated cost:  %.4g\n", rep.EstimatedCost)
		fmt.Printf("covers explored: %d (exhaustive: %v)\n", rep.CoversExplored, rep.Exhaustive)
		fmt.Printf("optimize time:   %v\n", rep.OptimizeTime)
		if plan, err := a.ExplainPlan(text, strat); err == nil {
			fmt.Printf("\n%s", plan)
		}
		return
	}

	res, err := a.Query(text, strat)
	if err != nil {
		fatal(err)
	}
	// Repeated-query mode: re-answer the same query; with -cache, every run
	// after the first is served from the plan cache (optimize and
	// reformulate skipped), which the per-run lines make visible.
	if *repeat > 1 {
		report := func(i int, rep repro.Report) {
			fmt.Fprintf(os.Stderr, "run %d: optimize=%v evaluate=%v cached=%v\n",
				i+1, rep.OptimizeTime.Round(time.Microsecond),
				rep.EvalTime.Round(time.Microsecond), rep.Cached)
		}
		report(0, res.Report)
		for i := 1; i < *repeat; i++ {
			// Each run gets its own span tree — without this every run's
			// spans pile into one shared root and the rendered trace shows
			// the accumulation of all runs instead of one run's lifecycle.
			// The last run's tree is the one rendered below.
			ai := a
			if *traceFlag {
				tr = repro.NewTrace("query")
				ai = a.WithTrace(tr)
			}
			ri, err := ai.Query(text, strat)
			if err != nil {
				fatal(err)
			}
			if ri.NumRows() != res.NumRows() {
				fatal(fmt.Errorf("run %d returned %d rows, run 1 returned %d", i+1, ri.NumRows(), res.NumRows()))
			}
			report(i, ri.Report)
		}
		if pc != nil {
			cs := pc.Snapshot()
			fmt.Fprintf(os.Stderr, "plan cache: %d hits / %d lookups (%.0f%% hit rate), %d invalidations, %d re-prices\n",
				cs.Hits, cs.Lookups(), 100*cs.HitRate(), cs.Invalidations, cs.Reprices)
		}
	}
	if fb != nil {
		fs := fb.Snapshot()
		fmt.Fprintf(os.Stderr, "feedback: %d observations, %d drift events, mean card err %.4f, mean cost err %.4f\n",
			fs.Observations, fs.DriftEvents, fs.MeanCardError, fs.MeanCostError)
	}
	// With -tracejson, stdout carries only the span-tree JSON so it can
	// be piped into tooling; the row count still reports on stderr.
	// Answers stream through Result.Each: a truncated print of a huge
	// answer set decodes no row past -maxrows.
	if !(*traceFlag && *traceJSON) {
		fmt.Printf("%s\n", strings.Join(res.Vars, "\t"))
		i := 0
		res.Each(func(row []rdf.Term) bool {
			if *maxRows > 0 && i >= *maxRows {
				fmt.Printf("... (%d more rows)\n", res.NumRows()-i)
				return false
			}
			parts := make([]string, len(row))
			for j, term := range row {
				parts[j] = term.Canonical()
			}
			fmt.Println(strings.Join(parts, "\t"))
			i++
			return true
		})
	}
	rep := res.Report
	fmt.Fprintf(os.Stderr, "\n%d rows (%d stored bytes); strategy=%s cover=%v |q_ref|=%d optimize=%v evaluate=%v\n",
		res.NumRows(), res.StoredBytes(), rep.Strategy, rep.Cover, rep.TotalCQs,
		rep.OptimizeTime.Round(time.Microsecond), rep.EvalTime.Round(time.Microsecond))

	if tr != nil {
		tr.End()
		if *traceJSON {
			data, err := json.MarshalIndent(tr, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", data)
			return
		}
		fmt.Fprintln(os.Stderr)
		if err := tr.Render(os.Stderr); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "\ncounters:")
		if err := tr.Registry().WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdfcli:", err)
	os.Exit(1)
}
