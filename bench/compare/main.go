// Command compare reads two sets of end-to-end results (directories
// holding *.e2e.json files, searched recursively; several files per
// workload are several runs) and the bounds in BENCHMARK.json, and
// prints one row per workload and end-to-end metric with a verdict. It
// exits 1 when any metric regressed or more operations failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set holds the runs of one side, by workload.
type set map[string][]runResult

func readSet(dir string) (set, error) {
	s := make(set)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".e2e.json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".e2e.json")
		s[name] = append(s[name], r)
		return nil
	})
	return s, err
}

func (s set) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s[workload] {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	sort.Float64s(v)
	return v
}

func (s set) failShare(workload string) (failed, attempted int) {
	for _, r := range s[workload] {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// quartiles returns the three cut points of a sorted sample the way
// Python's statistics.quantiles(v, n=4) does; a single value is its own
// quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares two samples of a metric. worse is how far the new
// median lies on the bad side of the old one, as a share of the old
// median; spread is the wider of the two interquartile ranges, as a
// share of its own median. A metric that stays within the bound while
// the spread exceeds it is unresolved, not unchanged.
func verdict(old, cur []float64, better string, bound float64) (v string, worse, spread float64) {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(cur)
	worse = (nmed - omed) / omed
	if better == "higher" {
		worse = -worse
	}
	spread = max((oq3-oq1)/omed, (nq3-nq1)/nmed)
	switch {
	case worse > bound:
		return regressed, worse, spread
	case worse < -bound:
		return improved, worse, spread
	case spread > bound:
		return unresolved, worse, spread
	}
	return unchanged, worse, spread
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	manifestPath := fl.String("manifest", "BENCHMARK.json", "the benchmark's manifest, for workloads and bounds")
	strict := fl.Bool("strict", false, "also exit 1 unless every metric is unchanged (the A/A check)")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-manifest BENCHMARK.json] [-strict] old/ new/")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	data, err := os.ReadFile(*manifestPath)
	if err != nil {
		return fail(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return fail(err)
	}
	old, err := readSet(fl.Arg(0))
	if err != nil {
		return fail(err)
	}
	cur, err := readSet(fl.Arg(1))
	if err != nil {
		return fail(err)
	}

	status := 0
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\told q1 / median / q3\tnew q1 / median / q3\tworse by\tof old median\tspread\tbound\tverdict")
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			o, n := old.values(w.Name, m.Name), cur.values(w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t\t\tmissing\n", w.Name, m.Name, m.Unit, len(o), len(n))
				status = 1
				continue
			}
			v, worse, spread := verdict(o, n, m.Better, m.Bound)
			oq1, omed, oq3 := quartiles(o)
			nq1, nmed, nq3 := quartiles(n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%+.2f%%\t%.4g\t%.2f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, len(o), len(n), oq1, omed, oq3, nq1, nmed, nq3, 100*worse, omed, 100*spread, 100*m.Bound, v)
			if v == regressed || (*strict && v != unchanged) {
				status = 1
			}
		}
		of, oa := old.failShare(w.Name)
		nf, na := cur.failShare(w.Name)
		if oa == 0 || na == 0 {
			continue
		}
		oldShare, newShare := float64(of)/float64(oa), float64(nf)/float64(na)
		v := unchanged
		if newShare > oldShare {
			v, status = regressed, 1
		}
		fmt.Fprintf(tw, "%s\tfail_share\tratio\t%d/%d\t%d of %d\t%d of %d\t\t\t\t\t%s\n",
			w.Name, len(old[w.Name]), len(cur[w.Name]), of, oa, nf, na, v)
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	return status
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
