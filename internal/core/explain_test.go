package core_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// EXPLAIN lists the arms in the order the pipeline evaluates them, with
// the estimate each was ranked by and the key filter it runs under or the
// reason it has none: the tiny-scale LUBM plans of Q01 and Q09 (a
// 176-member type arm filtered by the keys of a small arm) and Q23 (three
// arms, each later one filtered by the join so far).
func TestExplainPlanGolden(t *testing.T) {
	db, err := benchkit.BuildLUBM(benchkit.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	a := db.Answerer(engine.Native, core.Options{})
	for _, name := range []string{"Q01", "Q09", "Q23"} {
		q := db.Encoded[db.QueryIndex(name)]
		c, _, err := a.ChooseCover(q, core.GCov)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.ExplainPlan(q, c, func(id dict.ID) string {
			v := db.Dict.Term(id).Value
			return v[strings.LastIndexAny(v, "/#")+1:]
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "explain_"+name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: EXPLAIN differs from %s (rerun with -update if intended):\n%s", name, path, got)
		}
	}
}
