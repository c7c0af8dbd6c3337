package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/lubm"
)

const testSeed = 42

// The tests share one oracle over the tiny dataset.
var (
	testOracleOnce sync.Once
	testOracleVal  *oracle
	testOracleErr  error
)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	testOracleOnce.Do(func() {
		testOracleVal, testOracleErr = buildOracle(testSeed, lubm.Tiny())
	})
	if testOracleErr != nil {
		t.Fatal(testOracleErr)
	}
	// A copy, so a test may corrupt it.
	cp := *testOracleVal
	cp.Refs = make(map[string]reference, len(testOracleVal.Refs))
	for k, v := range testOracleVal.Refs {
		cp.Refs[k] = v
	}
	return &cp
}

// shortRun is a run over the tiny dataset with a one-second window.
func shortRun(t *testing.T, name string, orc *oracle) runConfig {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return runConfig{
		workload: w, seed: testSeed, dataset: lubm.Tiny(), oracle: orc, log: io.Discard,
		seconds: time.Second, warmup: 200 * time.Millisecond, setups: 2,
	}
}

// lastLine parses the result line a run printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metricValue) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The row hash must not depend on row order, must agree between the
// reformulation strategies and the saturation oracle, and must tell
// every pair of distinct answers in the workload apart.
func TestRowHashOrderIndependentAndCollisionFree(t *testing.T) {
	orc := testOracle(t)
	st, err := loadStore(testSeed, lubm.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	a := st.NewAnswerer(repro.Native, repro.Options{})
	rng := rand.New(rand.NewSource(1))
	bySignature := make(map[uint64]string)
	for name, text := range queryTexts() {
		res, err := a.Query(text, repro.GCov)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, r := range res.Rows() {
			rows = append(rows, canonicalRow(r, nil))
		}
		want := hashRows(rows)
		if want != orc.Refs[name] {
			t.Errorf("%s: gcov answer %+v differs from the saturation oracle %+v", name, want, orc.Refs[name])
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		if got := hashRows(rows); got != want {
			t.Errorf("%s: hash depends on row order: %+v then %+v", name, want, got)
		}
		if len(rows) > 1 {
			if got := hashRows(rows[1:]); got.Hash == want.Hash {
				t.Errorf("%s: dropping a row left the hash unchanged", name)
			}
			moved := append([][]string{append([]string{"x"}, rows[0]...)}, rows[1:]...)
			if got := hashRows(moved); got.Hash == want.Hash {
				t.Errorf("%s: changing a row left the hash unchanged", name)
			}
		}
		var flat []string
		for _, r := range rows {
			flat = append(flat, strings.Join(r, "\x00"))
		}
		sort.Strings(flat)
		sig := strings.Join(flat, "\n")
		if other, ok := bySignature[want.Hash]; ok && other != sig {
			t.Errorf("%s: hash %x collides with a different answer", name, want.Hash)
		}
		bySignature[want.Hash] = sig
	}
	// Cell boundaries count: ("ab","c") and ("a","bc") are different rows.
	if hashRows([][]string{{"ab", "c"}}) == hashRows([][]string{{"a", "bc"}}) {
		t.Error("hash ignores cell boundaries")
	}
}

// A wrong reference must surface as failed operations and a non-zero
// exit code.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	orc := testOracle(t)
	ref := orc.Refs["Q03"]
	ref.Hash ^= 1
	orc.Refs["Q03"] = ref
	var out, errOut bytes.Buffer
	code := execute(shortRun(t, "serve_point", orc), false, &out, &errOut)
	res := lastLine(t, out.String())
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference went unnoticed: exit %d, %+v (stderr %q)", code, res, errOut.String())
	}
	if res.Failed >= res.Attempted {
		t.Errorf("only Q03 is corrupted, yet %d of %d operations failed", res.Failed, res.Attempted)
	}
}

// Every name a run prints is declared, and every declared name is
// printed, for both kinds of run.
func TestRunsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	for _, tc := range []struct {
		workload string
		traced   bool
		defs     []metricDef
	}{
		{"lib_cold", false, endToEnd},
		{"serve_mixed", false, endToEnd},
		{"serve_mixed", true, perLayer},
		{"lib_cold", true, perLayer},
	} {
		t.Run(fmt.Sprintf("%s/traced=%v", tc.workload, tc.traced), func(t *testing.T) {
			rc := shortRun(t, tc.workload, testOracle(t))
			rc.outDir = t.TempDir()
			var out, errOut bytes.Buffer
			if code := execute(rc, tc.traced, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("run is not clean: %+v", res)
			}
			got, want := keys(res.Metrics), metricNames(tc.defs)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("printed metrics\n%v\ndeclared metrics\n%v", got, want)
			}
			for _, d := range tc.defs {
				if res.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s printed in %q, declared in %q", d.Name, res.Metrics[d.Name].Unit, d.Unit)
				}
				if !tc.traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if !tc.traced {
				return
			}
			data, err := os.ReadFile(rc.outDir + "/trace_" + tc.workload + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			layers := make(map[string]bool)
			for _, s := range spans {
				layers[s.Layer] = true
				if s.EndNS < s.StartNS || s.OpID == 0 {
					t.Fatalf("malformed span %+v", s)
				}
			}
			wantLayers := []string{"driver", "repro", "sparql", "engine"}
			if tc.workload != "lib_cold" {
				wantLayers = append(wantLayers, "net/http", "server")
				if res.Metrics["plancache.invalidations"].Value == 0 || res.Metrics["driver.update_ms_p50"].Value == 0 {
					t.Errorf("the mutator left no trace: %+v", res.Metrics)
				}
			}
			for _, l := range wantLayers {
				if !layers[l] {
					t.Errorf("no span of layer %s among %d spans", l, len(spans))
				}
			}
			var shares float64
			for name, v := range res.Metrics {
				if strings.HasPrefix(name, "share.") {
					shares += v.Value
				}
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("self-time shares sum to %v", shares)
			}
		})
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if got := quantile(s[:3], 0.95); got != 3 {
		t.Errorf("quantile of 3 samples at 0.95 = %d, want 3", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}

// The mutator times an update from when it was due: a stalled server
// delays the updates queued behind the stall, and that wait is theirs.
func TestMutatorTimesFromDueTime(t *testing.T) {
	const stall = 350 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		switch {
		case r.URL.Path == "/compact":
			fmt.Fprint(w, `{"ok":true}`)
		case r.URL.Query().Get("op") == "remove":
			fmt.Fprint(w, `{"removed":20}`)
		default:
			fmt.Fprint(w, `{"added":20}`)
		}
	}))
	defer srv.Close()
	m := newMutator(srv.Client(), srv.URL)
	s := m.run(time.Now(), 600*time.Millisecond)
	if s.failed != 0 {
		t.Fatalf("%d updates failed: %s", s.failed, s.firstErr)
	}
	if len(s.update) != 6 {
		t.Fatalf("%d adds in 600 ms at one per 100 ms, want 6", len(s.update))
	}
	if s.update[0] < stall {
		t.Errorf("stalled update took %v, less than the stall", s.update[0])
	}
	// The second add was due at 100 ms and could only be sent once the
	// first returned, some 250 ms late; the server answered it at once.
	if s.late[1] < 200*time.Millisecond || s.update[1] < s.late[1] {
		t.Errorf("update behind the stall: sent %v late, timed at %v", s.late[1], s.update[1])
	}
	if last := s.late[len(s.late)-1]; last > 50*time.Millisecond {
		t.Errorf("the mutator never caught up: last add %v late", last)
	}
	// 6 adds + 6 removes (the batches are all taken back at the end).
	if s.attempted != 12 {
		t.Errorf("%d operations, want 12", s.attempted)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildInterval(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},  // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, StartNS: 12, EndNS: 18},
		{ID: 6, StartNS: 200, EndNS: 260}, // another root
		{ID: 7, Parent: 6, StartNS: 200, EndNS: 260},
	}
	want := []int64{50, 14, 30, 30, 6, 0, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the declared tables, and the tables keep to the
// format's limits.
func TestManifestMatchesTheDeclaredTables(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bench/run.sh --manifest > BENCHMARK.json`")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(file))
	}
	if len(workloads) != 5 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.clients > 2 {
			t.Errorf("workload %s drives %d connections", w.Name, w.clients)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower {
		t.Errorf("setup_s is declared as %+v", d)
	}
}
