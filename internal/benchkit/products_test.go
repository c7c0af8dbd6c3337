package benchkit

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/sparql"
)

// Every cross-product query under every strategy, with cover pricing
// serial and parallel, must answer exactly what the naive evaluator
// answers over the saturated store — and not emptily, or the fixture
// tests nothing. Serial and parallel pricing must also agree on the
// rows, metrics and errors of every tracked LUBM and DBLP query.
func TestProductSpecsMatchNaive(t *testing.T) {
	db := tinyLUBM(t)
	seq := db.Answerer(engine.Native, core.Options{Parallelism: 1})
	par := db.Answerer(engine.Native, core.Options{})
	for _, spec := range FactorizedSpecs() {
		parsed, err := sparql.Parse(spec.Text)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		enc, err := sparql.Encode(parsed, db.Dict)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		q := enc.CQ
		want := naive.EvalCQ(db.Sat, q)
		if len(want) == 0 {
			t.Fatalf("%s: empty answer — bad fixture", spec.Name)
		}
		for _, strat := range core.Strategies() {
			label := spec.Name + "/" + string(strat)
			rel := answerSame(t, label, seq, par, q, strat)
			if rel == nil {
				t.Fatalf("%s: no answer", label)
			}
			got := make(naive.Rows, len(rel.Rows))
			for i, r := range rel.Rows {
				got[i] = naive.Row(r)
			}
			sort.Slice(got, func(i, j int) bool {
				a, b := got[i], got[j]
				for k := range a {
					if a[k] != b[k] {
						return a[k] < b[k]
					}
				}
				return false
			})
			if !naive.Equal(got, want) {
				t.Errorf("%s: %d rows, naive over the saturated store %d", label, len(got), len(want))
			}
		}
	}
	t.Run("tracked", func(t *testing.T) {
		skipUnderRace(t)
		for _, db := range []*Database{tinyLUBM(t), tinyDBLP(t)} {
			seq := db.Answerer(engine.Native, core.Options{Parallelism: 1})
			par := db.Answerer(engine.Native, core.Options{})
			for _, strat := range core.Strategies() {
				for qi, spec := range db.Specs {
					answerSame(t, db.Name+"/"+spec.Name+"/"+string(strat), seq, par, db.Encoded[qi], strat)
				}
			}
		}
	})
}

// answerSame answers q with serial and with parallel cover pricing and
// fails the test unless both return the same error text, or the same
// rows and metrics. It returns the serial answer's relation, nil on an
// error.
func answerSame(t *testing.T, label string, seq, par *core.Answerer, q bgp.CQ, strat core.Strategy) *engine.Relation {
	t.Helper()
	want, errSeq := seq.Answer(q, strat)
	got, errPar := par.Answer(q, strat)
	if (errSeq == nil) != (errPar == nil) {
		t.Fatalf("%s: serial err=%v, parallel err=%v", label, errSeq, errPar)
	}
	if errSeq != nil {
		if errSeq.Error() != errPar.Error() {
			t.Errorf("%s: error diverges: %v vs %v", label, errSeq, errPar)
		}
		return nil
	}
	if got.Report.Metrics != want.Report.Metrics {
		t.Errorf("%s: metrics diverge:\nserial:   %+v\nparallel: %+v", label, want.Report.Metrics, got.Report.Metrics)
	}
	if !reflect.DeepEqual(got.Rel.Rows, want.Rel.Rows) {
		t.Errorf("%s: parallel rows differ from serial", label)
	}
	return want.Rel
}
