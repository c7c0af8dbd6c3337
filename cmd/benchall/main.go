// Benchall regenerates every table and figure of the paper's evaluation
// (Section 5) as text reports: Tables 1–4 and Figures 4–10, plus the
// design-choice ablations of DESIGN.md.
//
// Usage:
//
//	benchall                     # everything, at the default (small) scale
//	benchall -scale medium       # the paper-like scale (slow)
//	benchall -table 2            # only Table 2
//	benchall -figure 4           # only Figure 4
//	benchall -ablations          # only the ablation benches
//	benchall -parallel           # only the parallelism sweep
//	benchall -cache              # only the plan-cache sweep (cold/warm/mutate)
//	benchall -feedback           # only the adaptive-cost warm-up sweep (gated)
//	benchall -feedbackjson -     # the same sweep, JSON on stdout
//	benchall -loadjson - -loadscales tiny,small,medium
//	                             # only the bulk-load scale sweep, JSON on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/engine"
)

// writeLoadSweep measures bulk load throughput and resident bytes per
// triple across the named scales (flat vs compressed block-columnar)
// and writes the result as JSON — the load data scripts/bench.sh embeds
// into the committed BENCH_*.json files.
func writeLoadSweep(names []string, par int, path string) error {
	sweep, err := benchkit.MeasureLoadScales(names, par)
	if err != nil {
		return err
	}
	if path == "-" {
		if err := sweep.WriteText(os.Stderr); err != nil {
			return err
		}
		return sweep.WriteJSON(os.Stdout)
	}
	if err := sweep.WriteText(os.Stderr); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := sweep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeServeSweep stands up an in-process rdfserver over the LUBM store
// and drives it with the load generator, writing per-point throughput
// and latency percentiles as JSON — the serve data scripts/bench.sh
// embeds into the committed BENCH_*.json files.
func writeServeSweep(sc benchkit.Scale, dur time.Duration, path string) error {
	sweep, err := benchkit.MeasureServe(sc, benchkit.ServeOptions{Duration: dur})
	if err != nil {
		return err
	}
	if err := sweep.WriteText(os.Stderr); err != nil {
		return err
	}
	if path == "-" {
		return sweep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := sweep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runFeedbackSweep runs the adaptive-cost warm-up sweep and enforces
// its acceptance gate: the mean relative cardinality estimation error
// must shrink at least 2x over the sweep (unless it ends near-exact),
// and the answers must match a feedback-free baseline exactly.
func runFeedbackSweep(sc benchkit.Scale, epochs int, jsonPath string) error {
	rep, err := benchkit.MeasureFeedback(sc, epochs)
	if err != nil {
		return err
	}
	if err := rep.WriteText(os.Stderr); err != nil {
		return err
	}
	if jsonPath != "" {
		if jsonPath == "-" {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			werr := rep.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		}
	}
	if !rep.AnswersIdentical {
		return fmt.Errorf("feedback changed answers — the loop must stay advisory")
	}
	if rep.CardImprovement < 2 && rep.FinalCardErr >= 0.02 {
		return fmt.Errorf("cardinality error improved only %.2fx (final %.4f), want >= 2x",
			rep.CardImprovement, rep.FinalCardErr)
	}
	return nil
}

// writeStageSweep answers a representative LUBM query set with every
// reformulation strategy under tracing and writes the per-stage
// breakdown as JSON — the stage data scripts/bench.sh embeds into the
// committed BENCH_*.json files.
func writeStageSweep(sc benchkit.Scale, path string) error {
	db, err := benchkit.BuildLUBM(sc)
	if err != nil {
		return err
	}
	prof := engine.PostgresLike
	a := db.Answerer(prof, core.Options{})
	rep := db.StageSweep(a, prof.Name,
		[]string{"Q01", "Q05", "Q09", "Q13"},
		[]core.Strategy{core.UCQ, core.SCQ, core.ECov, core.GCov})
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func main() {
	scale := flag.String("scale", "small", "dataset scale: tiny, small or medium")
	table := flag.Int("table", 0, "regenerate only this table (1-4)")
	figure := flag.Int("figure", 0, "regenerate only this figure (4-10)")
	ablations := flag.Bool("ablations", false, "run only the ablation benches")
	parallel := flag.Bool("parallel", false, "run only the parallelism sweep")
	cacheSweep := flag.Bool("cache", false, "run only the plan-cache sweep (cold vs warm vs mutate-then-requery)")
	stageJSON := flag.String("stagejson", "", "run the traced stage sweep and write its JSON to this file ('-' = stdout), then exit")
	serveJSON := flag.String("servejson", "", "run the HTTP serve throughput sweep and write its JSON to this file ('-' = stdout), then exit")
	serveDur := flag.Duration("serveduration", 2*time.Second, "per-point duration for -servejson")
	loadJSON := flag.String("loadjson", "", "run the bulk-load scale sweep and write its JSON to this file ('-' = stdout), then exit")
	loadScales := flag.String("loadscales", "tiny,small,medium", "comma-separated scales for -loadjson")
	loadPar := flag.Int("loadpar", 0, "loader parallelism for -loadjson (0 = GOMAXPROCS)")
	fbSweep := flag.Bool("feedback", false, "run only the feedback warm-up sweep (fails if the estimation error does not shrink 2x)")
	fbJSON := flag.String("feedbackjson", "", "run the feedback warm-up sweep and write its JSON to this file ('-' = stdout), then exit")
	fbEpochs := flag.Int("feedbackepochs", 4, "workload passes for the feedback sweep")
	flag.Parse()

	sc := benchkit.ScaleByName(*scale)
	out := os.Stdout

	if *fbSweep || *fbJSON != "" {
		if err := runFeedbackSweep(sc, *fbEpochs, *fbJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *loadJSON != "" {
		names := strings.Split(*loadScales, ",")
		if err := writeLoadSweep(names, *loadPar, *loadJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveJSON != "" {
		if err := writeServeSweep(sc, *serveDur, *serveJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *stageJSON != "" {
		if err := writeStageSweep(sc, *stageJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	all := *table == 0 && *figure == 0 && !*ablations && !*parallel && !*cacheSweep
	section := func(title string, f func() error) {
		fmt.Fprintf(out, "\n==== %s ====\n", title)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "(%.1fs)\n", time.Since(start).Seconds())
	}

	fmt.Fprintf(out, "Reproduction of Bursztyn, Goasdoué, Manolescu: Optimizing Reformulation-based Query Answering in RDF (EDBT 2015)\n")
	fmt.Fprintf(out, "scale=%s\n", sc.Name)

	lubmDB, err := benchkit.BuildLUBM(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "LUBM: %d triples (raw incl. closed constraints), %d saturated\n", lubmDB.Raw.Len(), lubmDB.Sat.Len())

	if all || *table == 1 {
		section("Table 1: characteristics of the motivating query q1 (our Q01)", func() error {
			return lubmDB.TripleCharacteristics(out, "Q01")
		})
	}
	if all || *table == 2 {
		section("Table 2: all cover-based reformulations of q1 (our Q01), Postgres-like", func() error {
			return lubmDB.CoverSweep(out, "Q01", engine.PostgresLike)
		})
	}
	if all || *table == 3 {
		section("Table 3: characteristics of the motivating query q2 (our Q02)", func() error {
			return lubmDB.TripleCharacteristics(out, "Q02")
		})
	}

	var dblpDB *benchkit.Database
	needDBLP := all || *table == 4 || *figure == 6 || *figure == 8
	if needDBLP {
		dblpDB, err = benchkit.BuildDBLP(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "DBLP: %d triples (raw incl. closed constraints), %d saturated\n", dblpDB.Raw.Len(), dblpDB.Sat.Len())
	}

	if all || *table == 4 {
		section("Table 4: query characteristics (|q_ref| and answer counts)", func() error {
			if err := lubmDB.QueryCharacteristics(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return dblpDB.QueryCharacteristics(out)
		})
	}

	if all || *figure == 4 || *figure == 5 {
		name := "Figure 4: LUBM query answering through UCQ, SCQ, ECov and GCov (3 engine profiles)"
		if *figure == 5 {
			name = "Figure 5: as Figure 4 at a larger scale (pass -scale medium)"
		}
		section(name, func() error {
			return lubmDB.StrategyMatrix(out, engine.Profiles())
		})
	}
	if all || *figure == 6 {
		section("Figure 6: DBLP query answering through UCQ, SCQ, ECov and GCov", func() error {
			return dblpDB.StrategyMatrix(out, engine.Profiles())
		})
	}
	if all || *figure == 7 {
		section("Figure 7: LUBM covers explored and optimizer running times", func() error {
			return lubmDB.SearchEffort(out)
		})
	}
	if all || *figure == 8 {
		section("Figure 8: DBLP covers explored and optimizer running times", func() error {
			return dblpDB.SearchEffort(out)
		})
	}
	if all || *figure == 9 {
		section("Figure 9: cost model comparison (our model vs engine-internal estimate)", func() error {
			return lubmDB.CostSourceComparison(out)
		})
	}
	if all || *figure == 10 {
		section("Figure 10: reformulation vs saturation-based query answering", func() error {
			return lubmDB.SaturationComparison(out)
		})
	}

	if all || *ablations {
		section("Ablation A1: index layout (3 vs 6 permutations)", func() error {
			return lubmDB.AblationIndexSet(out, "Q01", "Q09", "Q23")
		})
		section("Ablation A4: arm-join algorithm on SCQ plans", func() error {
			return lubmDB.AblationArmJoin(out, "Q05", "Q13", "Q25")
		})
		section("Ablation A5: factorized vs materialized reformulation", func() error {
			return lubmDB.AblationFactorizedReformulation(out, "Q01", "Q09", "Q13", "Q24")
		})
	}

	if all || *parallel {
		section(fmt.Sprintf("Parallelism sweep: GCov JUCQ on the native profile (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)), func() error {
			return lubmDB.ParallelismSweep(out, []int{1, 2, 4, runtime.GOMAXPROCS(0)}, 3)
		})
	}

	if all || *cacheSweep {
		section("Plan cache: cold vs warm (cached) vs mutate-then-requery", func() error {
			return lubmDB.CacheSweep(out, []string{"Q01", "Q05", "Q09", "Q13"}, 3)
		})
	}
}
