package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// starStore builds n subjects with one type triple and fanout knows
// triples each: a wide (?x type C) range at depth 0 and one short
// bound-subject probe per binding at depth 1.
func starStore(n, fanout int) (*storage.Store, bgp.CQ) {
	const typ, knows, class = dict.ID(1), dict.ID(2), dict.ID(3)
	b := storage.NewBuilder()
	for i := 0; i < n; i++ {
		s := dict.ID(100 + i)
		b.Add(storage.Triple{S: s, P: typ, O: class})
		for j := 0; j < fanout; j++ {
			b.Add(storage.Triple{S: s, P: knows, O: dict.ID(100 + (i+j+1)%n)})
		}
	}
	q := bgp.CQ{
		Head: []bgp.Term{bgp.V(0), bgp.V(1)},
		Atoms: []bgp.Atom{
			{S: bgp.V(0), P: bgp.C(typ), O: bgp.C(class)},
			{S: bgp.V(0), P: bgp.C(knows), O: bgp.V(1)},
		},
	}
	return b.Build(), q
}

// A steady-state member evaluation — a warmed scratch, every emitted row
// already in the dedup set — must allocate nothing: no binding map, no
// closure per member or per depth, no pattern or row buffers; and none for
// the key either when the member runs under a key filter (here one that
// admits every other subject).
func TestMemberEvaluationAllocatesNothing(t *testing.T) {
	st, q := starStore(500, 3)
	e := New(st, stats.Collect(st, schema.Vocab{}), Native)
	half := &keyFilter{cols: []int{0}}
	for i := 0; i < 500; i += 2 {
		half.set.add([]dict.ID{dict.ID(100 + i)})
	}
	for _, tc := range []struct {
		filter       *keyFilter
		rows, tuples int64
	}{{nil, 1500, 2000}, {half, 750, 1250}} {
		ctx := &evalCtx{snap: st.Snapshot(), shared: true, scans: newScanCache()}
		sc := newArmScratch(ctx, tc.filter)
		dedup := newDedupSet(ctx)
		plan := memberPlan{cq: q, order: e.memberOrder(ctx, sc, q)}
		if err := sc.evalMember(&plan, dedup); err != nil {
			t.Fatal(err)
		}
		if int64(dedup.size()) != tc.rows {
			t.Fatalf("warm-up admitted %d rows, want %d", dedup.size(), tc.rows)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := sc.evalMember(&plan, dedup); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a warmed member evaluation allocates %v objects, want 0", n)
		}
		if got := ctx.tuplesScanned.Load(); got != 22*tc.tuples {
			t.Errorf("tuples scanned = %d, want %d", got, 22*tc.tuples)
		}
		if got, want := ctx.filtered.Load(), 22*(1500-tc.rows)/3; got != want {
			t.Errorf("bindings dropped by the filter = %d, want %d", got, want)
		}
		ctx.snap.Release()
	}
}

// The meter holds work back from the shared counters, but never enough to
// loosen the evaluation's stopping points: charged one unit at a time it
// must report a canceled context within 4,096 units and an exhausted work
// budget within the budget plus one batch.
func TestMeterKeepsPollGranularity(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &evalCtx{done: cctx.Done(), cctx: cctx}
	m := &meter{ctx: ctx}
	var err error
	n := 0
	for ; err == nil && n < 1<<20; n++ {
		err = m.scanned(1)
	}
	if !errors.Is(err, ErrCanceled) || n > 1<<cancelCheckShift {
		t.Errorf("cancellation surfaced after %d units with %v, want %v within %d", n, err, ErrCanceled, 1<<cancelCheckShift)
	}

	const budget = 10_000
	ctx = &evalCtx{prof: Profile{Name: "tight", WorkBudget: budget}}
	m, err, n = &meter{ctx: ctx}, nil, 0
	for ; err == nil && n < 1<<20; n++ {
		err = m.charge(1)
	}
	if !errors.Is(err, ErrWorkBudget) || n <= budget || n > budget+meterBatch {
		t.Errorf("budget of %d surfaced after %d units with %v, want %v within one batch", budget, n, err, ErrWorkBudget)
	}
}

// An exhausted work budget and a canceled context must stop the kernel
// where they stopped the closure bind-join: with the same typed error,
// within 4,096 work units per worker of the trip point, whether it falls
// inside a wide depth-0 range (single-atom members over 30,000 triples)
// or among the inner probes of a join, with the pinned snapshot released
// and no worker goroutine left behind — sequentially and sharded.
func TestBudgetAndCancellationStopTheKernel(t *testing.T) {
	st, join := starStore(10_000, 3)
	sts := stats.Collect(st, schema.Vocab{})
	wide := bgp.CQ{Head: join.Head, Atoms: join.Atoms[1:]} // one 30,000-triple range
	union := func(q bgp.CQ) bgp.UCQ {                      // enough members to reach every shard
		u := bgp.UCQ{Vars: []uint32{0, 1}}
		for i := 0; i < 3*memberBatch; i++ {
			u.CQs = append(u.CQs, q)
		}
		return u
	}
	before := runtime.NumGoroutine()
	check := func(name string, snap *storage.Snapshot) {
		t.Helper()
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
	var snap *storage.Snapshot
	evalSnapshotHook = func(sn *storage.Snapshot) { snap = sn }
	defer func() { evalSnapshotHook = nil }()
	for _, par := range []int{1, 3} {
		for name, q := range map[string]bgp.CQ{"wide depth-0 range": wide, "inner probes": join} {
			name = fmt.Sprintf("par=%d, %s", par, name)
			const budget = 31_000
			prof := Profile{Name: "tight", WorkBudget: budget, ArmJoin: HashJoin}
			rel, m, err := New(st, sts, prof).WithParallelism(par).EvalUCQ(union(q))
			if !errors.Is(err, ErrWorkBudget) || rel != nil {
				t.Fatalf("%s: err = %v, rel = %v; want %v and no relation", name, err, rel, ErrWorkBudget)
			}
			if over := m.Work - budget; over <= 0 || over > int64(par)<<cancelCheckShift {
				t.Errorf("%s: stopped at %d work units, %d past the budget", name, m.Work, over)
			}
			check(name+", budget", snap)

			full, fm, err := New(st, sts, Native).WithParallelism(par).EvalUCQ(union(q))
			if err != nil || full.Len() != 30_000 {
				t.Fatalf("%s: unconstrained run: %d rows, %v", name, full.Len(), err)
			}
			cctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			rel, m, err = New(st, sts, Native).WithParallelism(par).WithContext(cctx).EvalUCQ(union(q))
			cancel()
			if !errors.Is(err, ErrCanceled) || rel != nil {
				t.Fatalf("%s: err = %v, rel = %v; want %v and no relation", name, err, rel, ErrCanceled)
			}
			if m.Work >= fm.Work {
				t.Errorf("%s: canceled run charged %d units, the full run %d", name, m.Work, fm.Work)
			}
			check(name+", cancellation", snap)
		}
	}
}
