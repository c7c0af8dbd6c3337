package engine_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Before snapshot pinning, the recursive bind-join nested store read
// locks: the depth-1 scan re-entered Store.Scan inside the depth-0 scan
// callback, and a writer queued between the two acquisitions deadlocked
// both (the documented RWMutex nesting hazard). This regression test
// races a hot mutator against evaluations whose join has at least two
// levels, under a watchdog: on the old nested-RLock path it hangs and
// the watchdog fires; with evaluations pinned to a snapshot it finishes
// (and -race confirms the snapshot view is data-race-free under
// concurrent Add/Remove).
func TestNestedScansSurviveConcurrentMutator(t *testing.T) {
	const (
		typeID   = dict.ID(1)
		worksFor = dict.ID(2)
		profID   = dict.ID(3)
	)
	b := storage.NewBuilder()
	for i := 0; i < 200; i++ {
		person := dict.ID(100 + i)
		dept := dict.ID(1000 + i%10)
		b.Add(storage.Triple{S: person, P: worksFor, O: dept})
		if i%2 == 0 {
			b.Add(storage.Triple{S: person, P: typeID, O: profID})
		}
	}
	raw := b.Build()
	st := stats.Collect(raw, schema.Vocab{})
	q := bgp.CQ{
		Head: []bgp.Term{bgp.V(1), bgp.V(2)},
		Atoms: []bgp.Atom{
			{S: bgp.V(1), P: bgp.C(worksFor), O: bgp.V(2)},
			{S: bgp.V(1), P: bgp.C(typeID), O: bgp.C(profID)},
		},
	}

	eng := engine.New(raw, st, engine.Native)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		synthetic := storage.Triple{S: 9999, P: worksFor, O: 8888}
		real := storage.Triple{S: 100, P: typeID, O: profID}
		for {
			select {
			case <-stop:
				return
			default:
			}
			raw.Add(synthetic)
			raw.Remove(synthetic)
			raw.Remove(real)
			raw.Add(real)
		}
	}()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, _, err := eng.EvalCQ(q); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("evaluation under mutation failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("deadlock: bind-join scans starved by a concurrent writer")
	}
	close(stop)
	wg.Wait()
}
