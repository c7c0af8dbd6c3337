package benchkit

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func tinyLUBM(t *testing.T) *Database {
	t.Helper()
	db, err := BuildLUBM(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func tinyDBLP(t *testing.T) *Database {
	t.Helper()
	db, err := BuildDBLP(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// skipUnderRace skips a report or sweep test in a -race build. They drive
// whole workloads through code whose concurrency the engine, core and
// server packages already test under the detector, and together they
// took the race step of scripts/check.sh past the default test timeout.
// The plain go test step still runs them.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("report and sweep tests run without -race only")
	}
}

func TestBuildLUBMMemoized(t *testing.T) {
	a := tinyLUBM(t)
	b := tinyLUBM(t)
	if a != b {
		t.Error("BuildLUBM not memoized")
	}
	if len(a.Specs) != 28 || len(a.Encoded) != 28 {
		t.Errorf("LUBM workload has %d specs, %d encoded", len(a.Specs), len(a.Encoded))
	}
	if a.Raw.Len() == 0 || a.Sat.Len() <= a.Raw.Len() {
		t.Errorf("store sizes wrong: raw %d, sat %d", a.Raw.Len(), a.Sat.Len())
	}
}

func TestBuildDBLP(t *testing.T) {
	db := tinyDBLP(t)
	if len(db.Specs) != 10 {
		t.Errorf("DBLP workload has %d specs", len(db.Specs))
	}
}

func TestQueryIndex(t *testing.T) {
	db := tinyLUBM(t)
	if db.QueryIndex("Q01") != 0 || db.QueryIndex("Q28") != 27 {
		t.Error("QueryIndex wrong")
	}
	if db.QueryIndex("nope") != -1 {
		t.Error("unknown query should be -1")
	}
}

func TestRunOutcome(t *testing.T) {
	db := tinyLUBM(t)
	a := db.Answerer(engine.Native, core.Options{})
	out := db.Run(a, db.QueryIndex("Q03"), core.GCov)
	if out.Failed() {
		t.Fatalf("Q03 failed: %v", out.Err)
	}
	if out.Rows == 0 || out.Total == 0 {
		t.Errorf("outcome not filled: %+v", out)
	}
	// A failing run must be reported as such.
	small := engine.Profile{Name: "t", MaxPlanLeaves: 5, ArmJoin: engine.HashJoin}
	fa := db.Answerer(small, core.Options{})
	fout := db.Run(fa, db.QueryIndex("Q02"), core.UCQ)
	if !fout.Failed() {
		t.Error("Q02 UCQ on a 5-leaf profile should fail")
	}
}

func TestRunAveraged(t *testing.T) {
	db := tinyLUBM(t)
	a := db.Answerer(engine.Native, core.Options{})
	out := db.RunAveraged(a, db.QueryIndex("Q05"), core.GCov, 3)
	if out.Failed() || out.Rows == 0 {
		t.Fatalf("averaged run failed: %+v", out)
	}
	if out.Evaluate <= 0 || out.Total <= 0 {
		t.Errorf("averaged timings not positive: %+v", out)
	}
	// Failures propagate.
	small := engine.Profile{Name: "t", MaxPlanLeaves: 5, ArmJoin: engine.HashJoin}
	fa := db.Answerer(small, core.Options{})
	if fout := db.RunAveraged(fa, db.QueryIndex("Q02"), core.UCQ, 3); !fout.Failed() {
		t.Error("failure not propagated by RunAveraged")
	}
}

func TestTripleCharacteristicsReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.TripleCharacteristics(&buf, "Q01"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(t1)") || !strings.Contains(out, "(t3)") {
		t.Errorf("report missing triples:\n%s", out)
	}
	if err := db.TripleCharacteristics(&buf, "nope"); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestCoverSweepReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.CoverSweep(&buf, "Q01", engine.Native); err != nil {
		t.Fatal(err)
	}
	// Q01 has 3 pairwise-joining atoms: exactly 8 covers plus header.
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n")
	if lines != 8 {
		t.Errorf("cover sweep has %d data lines, want 8:\n%s", lines, buf.String())
	}
}

func TestQueryCharacteristicsReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.QueryCharacteristics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q01", "Q14", "Q28"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("report missing %s", name)
		}
	}
}

func TestStrategyMatrixReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyDBLP(t)
	var buf bytes.Buffer
	if err := db.StrategyMatrix(&buf, []engine.Profile{engine.PostgresLike}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "postgreslike/ucq") {
		t.Errorf("matrix header missing:\n%s", out)
	}
	// Q10's UCQ (nearly 2M members at full scale; large even here) must
	// fail on the profile — the paper's missing bar.
	if !strings.Contains(out, "FAIL") {
		t.Errorf("expected at least one failure marker:\n%s", out)
	}
}

func TestSearchEffortReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.SearchEffort(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ecov covers") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

func TestCostSourceComparisonReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.CostSourceComparison(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gcov(engine)") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

func TestSaturationComparisonReport(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	var buf bytes.Buffer
	if err := db.SaturationComparison(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "saturation(native)") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

func TestAblationReports(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	cases := []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return db.AblationIndexSet(b, "Q01") },
		func(b *bytes.Buffer) error { return db.AblationJoinOrdering(b, "Q01") },
		func(b *bytes.Buffer) error { return db.AblationGCovRedundancy(b, "Q01") },
		func(b *bytes.Buffer) error { return db.AblationArmJoin(b, "Q05") },
		func(b *bytes.Buffer) error { return db.AblationFactorizedReformulation(b, "Q01") },
	}
	for i, f := range cases {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Errorf("ablation %d: %v", i, err)
		}
		if buf.Len() == 0 {
			t.Errorf("ablation %d produced no output", i)
		}
	}
}

func TestScaleByName(t *testing.T) {
	if ScaleByName("tiny").Name != "tiny" || ScaleByName("medium").Name != "medium" {
		t.Error("named scales wrong")
	}
	if ScaleByName("").Name != "small" || ScaleByName("bogus").Name != "small" {
		t.Error("default scale wrong")
	}
}
