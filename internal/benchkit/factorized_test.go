package benchkit

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// The sweep's own assertions are the strict-equality test of the
// factorized answer representation on LUBM: for every cross-product
// query it requires byte-identical expanded rows AND identical engine
// metrics between the factorized and flat paths. Beyond that, at least
// one query must actually hold its answers factorized (a smaller
// stored footprint than flat) — otherwise the experiment is dead and
// the sweep's compression column is vacuous.
func TestFactorizedSweepLUBM(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	outs, err := db.FactorizedSweep(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(FactorizedSpecs()) {
		t.Fatalf("sweep covered %d queries, want %d", len(outs), len(FactorizedSpecs()))
	}
	best := 0.0
	for _, o := range outs {
		if o.Rows == 0 {
			t.Errorf("%s: empty answer — bad fixture", o.Query)
		}
		if o.CompressionRatio > best {
			best = o.CompressionRatio
		}
	}
	if best < 2 {
		t.Errorf("no query compressed at least 2x (best %.2fx) — factorization never engaged", best)
	}
}

// The full differential over the tracked workloads: every LUBM and DBLP
// query under every strategy, answered with factorization on
// (sequential and parallel) and off, must produce byte-identical
// expanded rows and strictly equal engine metrics — or fail identically.
func TestFactorizedWorkloadDifferential(t *testing.T) {
	skipUnderRace(t)
	for _, db := range []*Database{tinyLUBM(t), tinyDBLP(t)} {
		fact := db.Answerer(engine.Native, core.Options{Parallelism: 1})
		factPar := db.Answerer(engine.Native, core.Options{})
		flat := db.Answerer(engine.Native, core.Options{Parallelism: 1, NoFactorized: true})
		for _, strat := range core.Strategies() {
			for qi, spec := range db.Specs {
				label := db.Name + "/" + spec.Name + "/" + string(strat)
				q := db.Encoded[qi]
				ansFlat, errFlat := flat.Answer(q, strat)
				for variant, a := range map[string]*core.Answerer{"seq": fact, "par": factPar} {
					ans, err := a.Answer(q, strat)
					if (err == nil) != (errFlat == nil) {
						t.Fatalf("%s %s: factorized err=%v, flat err=%v", label, variant, err, errFlat)
					}
					if err != nil {
						if err.Error() != errFlat.Error() {
							t.Errorf("%s %s: error diverges: %v vs %v", label, variant, err, errFlat)
						}
						continue
					}
					if ans.Report.Metrics != ansFlat.Report.Metrics {
						t.Errorf("%s %s: metrics diverge:\nfact: %+v\nflat: %+v",
							label, variant, ans.Report.Metrics, ansFlat.Report.Metrics)
					}
					if !reflect.DeepEqual(ans.Rel.Materialize(), ansFlat.Rel.Materialize()) {
						t.Errorf("%s %s: expanded rows differ from flat", label, variant)
					}
				}
			}
		}
	}
}
