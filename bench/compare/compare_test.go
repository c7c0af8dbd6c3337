package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{99, 100, 101}
	for _, tc := range []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"same", []float64{99.5, 100.5, 101}, "lower", unchanged},
		{"slower", []float64{110, 111, 112}, "lower", regressed},
		{"faster", []float64{88, 89, 90}, "lower", improved},
		{"less throughput", []float64{88, 89, 90}, "higher", regressed},
		{"more throughput", []float64{110, 111, 112}, "higher", improved},
		{"too noisy to tell", []float64{92, 101, 108}, "lower", unresolved},
		{"noisy but clearly worse", []float64{105, 115, 125}, "lower", regressed},
	} {
		got, worse, spread := verdict(steady, tc.cur, tc.better, 0.06)
		if got != tc.want {
			t.Errorf("%s: %s (worse %+.3f, spread %.3f), want %s", tc.name, got, worse, spread, tc.want)
		}
	}
	if _, worse, _ := verdict(steady, []float64{110, 110, 110}, "lower", 0.06); math.Abs(worse-0.10) > 1e-9 {
		t.Errorf("worse = %v, want 0.10 of the old median", worse)
	}
}

func TestRunExitsNonZeroOnRegressionOrMoreFailures(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, text string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(manifest, `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"qps","unit":"1/s","better":"higher","bound":0.06}]}`)
	side := func(name string, failed int, qps ...float64) string {
		for i, v := range qps {
			write(filepath.Join(dir, name, fmt.Sprint("run", i), "w.e2e.json"),
				fmt.Sprintf(`{"correct":%v,"attempted":1000,"failed":%d,"metrics":{"qps":{"value":%v,"unit":"1/s"}}}`, failed == 0, failed, v))
		}
		return filepath.Join(dir, name)
	}
	base := side("base", 0, 100, 101, 99)
	for _, tc := range []struct {
		name string
		dir  string
		want int
		row  string
	}{
		{"same", side("same", 0, 100.5, 99.5, 101), 0, unchanged},
		{"slow", side("slow", 0, 80, 81, 79), 1, regressed},
		{"failing", side("failing", 3, 100, 101, 99), 1, regressed},
	} {
		var out, errOut bytes.Buffer
		if got := run([]string{"-manifest", manifest, base, tc.dir}, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), tc.row) {
			t.Errorf("%s: no %q row in\n%s", tc.name, tc.row, out.String())
		}
	}
}
