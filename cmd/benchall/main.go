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
//
// An unknown -scale name exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/benchkit"
	"repro/internal/engine"
)

func main() {
	scale := flag.String("scale", "small", "dataset scale: tiny, small or medium")
	table := flag.Int("table", 0, "regenerate only this table (1-4)")
	figure := flag.Int("figure", 0, "regenerate only this figure (4-10)")
	ablations := flag.Bool("ablations", false, "run only the ablation benches")
	flag.Parse()

	sc, ok := benchkit.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchall: unknown scale %q (want tiny, small or medium)\n", *scale)
		os.Exit(2)
	}
	out := os.Stdout

	all := *table == 0 && *figure == 0 && !*ablations
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
}
