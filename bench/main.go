// Command bench is the repository's benchmark: one workload per process,
// inputs generated from -seed, every answer checked against a saturation
// oracle, the result printed as one JSON object on the last line of
// standard output. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/lubm"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig describes one run.
type runConfig struct {
	workload workload
	seed     int64
	seconds  time.Duration // measured window
	warmup   time.Duration // untimed, before the window: plan cache, statistics memo, block cache and feedback settle
	setups   int           // set-ups timed for setup_s; the last one is kept
	dataset  lubm.Config   // generator profile; the tests use lubm.Tiny
	oracle   *oracle       // references over the same seed and dataset
	outDir   string        // result and span files; "" writes none
	log      io.Writer     // metric lines for people
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: serve_point, serve_join, serve_bulk, serve_mixed or lib_cold")
		seed     = fs.Int64("seed", 42, "seed of the dataset, the query order and the probes' samples")
		seconds  = fs.Float64("seconds", runSeconds, "length of the measured window")
		traced   = fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
		outDir   = fs.String("outdir", "bench/out", "directory for result and span files (\"\" writes none)")
		orcMode  = fs.Bool("oracle", false, "print the oracle's references as JSON and exit (used by the benchmark itself)")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json from the declared workloads and metrics and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *manifest:
		if err := writeManifest(stdout); err != nil {
			return fail(err)
		}
		return 0
	case *orcMode:
		orc, err := buildOracle(*seed, datasetConfig())
		if err == nil {
			err = json.NewEncoder(stdout).Encode(orc)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	orc, err := oracleFromChild(*seed)
	if err != nil {
		return fail(err)
	}
	rc := runConfig{
		workload: w, seed: *seed, dataset: datasetConfig(), oracle: orc, outDir: *outDir, log: stdout,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  2 * time.Second,
		setups:  9,
	}
	return execute(rc, *traced != 0, stdout, stderr)
}

// execute performs one run, prints its result line and returns the
// process's exit code: 1 when the run could not be made or any operation
// failed its check.
func execute(rc runConfig, traced bool, stdout, stderr io.Writer) int {
	run, kind := runEndToEnd, "e2e"
	if traced {
		run, kind = runTraced, "layers"
	}
	res, err := run(rc)
	var line []byte
	if err == nil {
		line, err = json.Marshal(res)
	}
	if err == nil && rc.outDir != "" {
		err = writeFile(rc.outDir, rc.workload.Name+"."+kind+".json", line)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(w io.Writer, workload string, values map[string]metricValue) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-12s %-32s %14.4f %s\n", workload, n, values[n].Value, values[n].Unit)
	}
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	})
}

// runSeconds is the window the driver asks for (BENCHMARK.json's
// run_seconds): with set-up, oracle and warm-up a run takes about 24 s,
// so the driver's 4 + 22 x 5 runs and two builds fit its 3420 s with a
// fifth to spare.
const runSeconds = 20
