package benchkit

import (
	"io"
	"testing"

	"repro/internal/core"
)

// The sweep's own assertions are the strict-equality test of the
// shared-scan layer over the full LUBM and DBLP workloads: for every
// query it requires identical rows AND identical engine metrics between
// the shared and baseline paths, sequential and parallel, and
// byte-identical relations on a re-answer. Any divergence surfaces as
// an error here.
func TestSharedScanSweepLUBM(t *testing.T) {
	skipUnderRace(t)
	db := tinyLUBM(t)
	for _, strat := range []core.Strategy{core.UCQ, core.GCov} {
		if err := db.SharedScanSweep(io.Discard, nil, strat, 1); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
}

func TestSharedScanSweepDBLP(t *testing.T) {
	skipUnderRace(t)
	db := tinyDBLP(t)
	for _, strat := range []core.Strategy{core.UCQ, core.GCov} {
		if err := db.SharedScanSweep(io.Discard, nil, strat, 1); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
}
