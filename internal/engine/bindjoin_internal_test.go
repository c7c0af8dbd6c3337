package engine

import (
	"context"
	"errors"
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
// admits every other subject, as a set and as a bitmap). The same holds for a warmed family: four
// members sharing their (?x type C) scan, differing in their head and in
// the predicate of their depth-1 atom, dispatched from one wide probe.
func TestMemberEvaluationAllocatesNothing(t *testing.T) {
	st, q := starStore(500, 3)
	e := New(st, stats.Collect(st, schema.Vocab{}), Native)
	halfSet := &keyFilter{cols: []int{0}}
	halfBits := &keyFilter{cols: []int{0}, bits: make([]uint64, 500/64+1), lo: 100}
	for i := 0; i < 500; i += 2 {
		halfSet.set.add([]dict.ID{dict.ID(100 + i)})
		halfBits.bits[i>>6] |= 1 << (i & 63)
	}
	swapped := bgp.CQ{Head: []bgp.Term{q.Head[1], q.Head[0]}, Atoms: q.Atoms}
	anyProp := bgp.CQ{Head: q.Head, Atoms: []bgp.Atom{q.Atoms[0], {S: bgp.V(0), P: bgp.V(2), O: bgp.V(1)}}}
	constHead := bgp.CQ{Head: []bgp.Term{bgp.V(0), bgp.C(7)}, Atoms: q.Atoms}
	family := []bgp.CQ{q, swapped, anyProp, constHead}
	for _, tc := range []struct {
		name         string
		members      []bgp.CQ
		filter       *keyFilter
		rows, tuples int64
		dropped      int64
	}{
		{"member", []bgp.CQ{q}, nil, 1500, 2000, 0},
		{"member filtered by a set", []bgp.CQ{q}, halfSet, 750, 1250, 250},
		{"member filtered by a bitmap", []bgp.CQ{q}, halfBits, 750, 1250, 250},
		// 1,500 (x, y) rows, 1,500 (y, x) rows, 500 (x, 7) rows and, from
		// the member of any property, 500 (x, class) rows; each subject's
		// (x, ?, ?) probe returns its four triples.
		{"family", family, nil, 4000, 2500, 0},
	} {
		ctx := &evalCtx{snap: st.Snapshot()}
		sc := newArmScratch(ctx, tc.filter)
		dedup := newDedupSet(ctx)
		if err := e.evalMemberRun(ctx, sc, tc.members, dedup); err != nil {
			t.Fatal(err)
		}
		if int64(dedup.set.len()) != tc.rows {
			t.Fatalf("%s: warm-up admitted %d rows, want %d", tc.name, dedup.set.len(), tc.rows)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := e.evalMemberRun(ctx, sc, tc.members, dedup); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: a warmed evaluation allocates %v objects, want 0", tc.name, n)
		}
		if got := ctx.tuplesScanned.Load(); got != 22*tc.tuples {
			t.Errorf("%s: tuples scanned = %d, want %d", tc.name, got, 22*tc.tuples)
		}
		if got, want := ctx.filtered.Load(), 22*tc.dropped; got != want {
			t.Errorf("%s: bindings dropped by the filter = %d, want %d", tc.name, got, want)
		}
		if got, want := ctx.families.Load(), int64(22); got != want {
			t.Errorf("%s: %d families evaluated, want one per run (%d)", tc.name, got, want)
		}
		sc.release()
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
// within 4,096 work units of the trip point, whether it falls inside a
// wide depth-0 range (one-atom members over 30,000 triples) or among the
// inner probes of a join, with the pinned snapshot released and no
// goroutine left behind. The members form one family — half of them
// project (x, y), half (y, x) — so the trip falls inside its dispatch
// loop.
func TestBudgetAndCancellationStopTheKernel(t *testing.T) {
	st, join := starStore(10_000, 3)
	sts := stats.Collect(st, schema.Vocab{})
	wide := bgp.CQ{Head: join.Head, Atoms: join.Atoms[1:]} // one 30,000-triple range
	union := func(q bgp.CQ) bgp.UCQ {
		u := bgp.UCQ{Vars: []uint32{0, 1}}
		for i := 0; i < 96; i++ {
			if i%2 == 1 {
				q.Head = []bgp.Term{q.Head[1], q.Head[0]}
			}
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
	for name, q := range map[string]bgp.CQ{"wide depth-0 range": wide, "inner probes": join} {
		const budget = 31_000
		prof := Profile{Name: "tight", WorkBudget: budget, ArmJoin: HashJoin}
		rel, m, err := New(st, sts, prof).EvalUCQ(union(q))
		if !errors.Is(err, ErrWorkBudget) || rel != nil {
			t.Fatalf("%s: err = %v, rel = %v; want %v and no relation", name, err, rel, ErrWorkBudget)
		}
		if over := m.Work - budget; over <= 0 || over > 1<<cancelCheckShift {
			t.Errorf("%s: stopped at %d work units, %d past the budget", name, m.Work, over)
		}
		check(name+", budget", snap)

		full, fm, err := New(st, sts, Native).EvalUCQ(union(q))
		if err != nil || full.Len() != 60_000 {
			t.Fatalf("%s: unconstrained run: %d rows, %v", name, full.Len(), err)
		}
		cctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		rel, m, err = New(st, sts, Native).WithContext(cctx).EvalUCQ(union(q))
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
