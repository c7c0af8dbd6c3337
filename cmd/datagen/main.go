// Datagen emits the synthetic LUBM-like or DBLP-like datasets of this
// reproduction as N-Triples on stdout (schema first, then data), so they
// can be loaded by rdfcli or by external tools.
//
// Triples stream straight to the writer as the generators emit them, so
// memory stays flat however large the requested scale is.
//
// Usage:
//
//	datagen -workload lubm -universities 2 > lubm2.nt
//	datagen -workload lubm -scale medium > lubm_medium.nt
//	datagen -workload dblp -publications 50000 > dblp.nt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchkit"
	"repro/internal/dblp"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/rdf"
)

func main() {
	workload := flag.String("workload", "lubm", "workload to generate: lubm or dblp")
	universities := flag.Int("universities", 1, "lubm: number of universities")
	pubs := flag.Int("publications", 20000, "dblp: number of publication records")
	seed := flag.Int64("seed", 42, "generator seed (with -scale, default benchkit's seed for the workload)")
	tiny := flag.Bool("tiny", false, "lubm: use the scaled-down test profile")
	scale := flag.String("scale", "", "use a benchkit scale preset (tiny, small or medium) for the sizes; overrides -universities/-publications/-tiny so datasets match benchkit's datasets")
	flag.Parse()

	if *scale != "" {
		sc, ok := benchkit.ScaleByName(*scale)
		if !ok {
			fmt.Fprintf(os.Stderr, "datagen: unknown scale %q (want tiny, small or medium)\n", *scale)
			os.Exit(2)
		}
		*universities = sc.LUBMUnivs
		*pubs = sc.DBLPPubs
		*tiny = sc.Name == "tiny"
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if !seedSet {
			*seed = benchkit.LUBMSeed
			if *workload == "dblp" {
				*seed = benchkit.DBLPSeed
			}
		}
	}

	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	w := ntriples.NewWriter(out)
	n := 0
	emit := func(t rdf.Triple) {
		if err := w.Write(t); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		n++
	}

	switch *workload {
	case "lubm":
		for _, t := range lubm.Ontology() {
			emit(t)
		}
		cfg := lubm.Default()
		if *tiny {
			cfg = lubm.Tiny()
		}
		lubm.Generate(*universities, *seed, cfg, emit)
	case "dblp":
		for _, t := range dblp.Ontology() {
			emit(t)
		}
		dblp.Generate(*pubs, *seed, emit)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown workload %q (want lubm or dblp)\n", *workload)
		os.Exit(2)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d triples\n", n)
}
