package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// An exhausted work budget and a canceled context must stop the arm
// pipeline's own operators as they stop the kernel: while the key set is
// being built (one work unit per row of the join so far) and among the
// probes of an arm evaluated under it — typed error, within 4,096 work
// units of the trip point, snapshot released, no goroutine left, whatever
// the projection's worker count.
func TestBudgetAndCancellationStopThePipeline(t *testing.T) {
	before := runtime.NumGoroutine()
	var snap *storage.Snapshot
	evalSnapshotHook = func(sn *storage.Snapshot) { snap = sn }
	defer func() { evalSnapshotHook = nil }()

	// cancelOnStream wraps an arm so that the context is canceled the
	// moment the pipeline starts streaming its members.
	cancelOnStream := func(a ArmSource, cancel func()) ArmSource {
		each := a.Each
		a.Each = func(f func(bgp.CQ) bool) bool { cancel(); return each(f) }
		return a
	}
	for _, par := range []int{1, 3} {
		run := func(name string, st *storage.Store, prof Profile, arms func(cancel func()) []ArmSource, wantErr error, atLeast, atMost, members int64) {
			t.Helper()
			name = fmt.Sprintf("par=%d, %s", par, name)
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng := New(st, stats.Collect(st, schema.Vocab{}), prof).WithParallelism(par).WithContext(cctx)
			rel, m, err := eng.EvalArms([]uint32{0, 1}, arms(cancel))
			if !errors.Is(err, wantErr) || rel != nil {
				t.Fatalf("%s: err = %v, rel = %v; want %v and no relation", name, err, rel, wantErr)
			}
			if m.Work < atLeast || m.Work > atMost || m.UnionArms < members {
				t.Errorf("%s: stopped at %d work units after %d members, want %d..%d units and at least %d members", name, m.Work, m.UnionArms, atLeast, atMost, members)
			}
			if snap == nil || !snap.Released() {
				t.Errorf("%s: snapshot not released", name)
			}
			for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines left, %d before", name, n, before)
			}
		}
		poll := int64(par) << cancelCheckShift

		// The key-set build: a 1,500-row first arm costs 3,000 units (scan
		// and emission), the key set over it 1,500 more.
		small, join := starStore(500, 3)
		pair := func(first bgp.CQ, second bgp.UCQ) []ArmSource {
			a, b := SourceFromUCQ(bgp.UCQ{Vars: []uint32{0, 1}, CQs: []bgp.CQ{first}}), SourceFromUCQ(second)
			a.EstRows, b.EstRows = 1, 1e6
			return []ArmSource{a, b}
		}
		wide := bgp.CQ{Head: join.Head, Atoms: join.Atoms[1:]}
		one := bgp.UCQ{Vars: []uint32{0, 1}, CQs: []bgp.CQ{join}}
		run("budget in the key-set build", small, Profile{Name: "tight", WorkBudget: 3700, ArmJoin: HashJoin},
			func(func()) []ArmSource { return pair(wide, one) }, ErrWorkBudget, 3701, 3701, 1)
		run("cancellation in the key-set build", small, Native,
			func(cancel func()) []ArmSource {
				arms := pair(wide, one)
				arms[0] = cancelOnStream(arms[0], cancel) // unnoticed for the arm's 3,000 units: the first poll is at 4,096
				return arms
			}, ErrCanceled, 1<<cancelCheckShift, 4500, 1)

		// A filtered arm: 10,000 keys (20,000 units for the arm, 10,000 for
		// the set) admit every binding of a union of 70,000-unit members.
		big, join := starStore(10_000, 3)
		keys := bgp.CQ{Head: []bgp.Term{bgp.V(0)}, Atoms: join.Atoms[:1]}
		union := bgp.UCQ{Vars: []uint32{0, 1}}
		for i := 0; i < 96; i++ {
			union.CQs = append(union.CQs, join)
		}
		filtered := func() []ArmSource {
			arms := pair(keys, union)
			arms[0].Vars = []uint32{0}
			return arms
		}
		const budget = 30_000 + 35_000
		run("budget in a filtered arm", big, Profile{Name: "tight", WorkBudget: budget, ArmJoin: HashJoin},
			func(func()) []ArmSource { return filtered() }, ErrWorkBudget, budget+1, budget+poll, 2)
		run("cancellation in a filtered arm", big, Native,
			func(cancel func()) []ArmSource {
				arms := filtered()
				arms[1] = cancelOnStream(arms[1], cancel)
				return arms
			}, ErrCanceled, 30_000, 30_000+2*poll, 2) // a poll interval each, plus what each worker's meter held back
	}
}
