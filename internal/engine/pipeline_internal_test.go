package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
)

// An exhausted work budget and a canceled context must stop the arm
// pipeline's own operators as they stop the kernel: while the key set is
// being built (one work unit per row of the join so far) and among the
// probes of an arm evaluated under it — typed error, within 4,096 work
// units of the trip point, snapshot released, no goroutine left.
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
	run := func(name string, st *storage.Store, prof Profile, arms func(cancel func()) []ArmSource, wantErr error, atLeast, atMost, members int64) {
		t.Helper()
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		eng := New(st, stats.Collect(st, schema.Vocab{}), prof).WithContext(cctx)
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
	const poll = 1 << cancelCheckShift

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
		}, ErrCanceled, 30_000, 30_000+2*poll, 2) // a poll interval, plus what the meter held back
}

// A one-column key filter is a bitmap over its span, and must admit exactly
// what the rowSet it replaces admits: the span's lowest ID, both sides of
// each 64-bit word boundary, nothing just outside the span or far from it,
// and each key counted once. A key whose span would need more than four
// words per input row, and a key of two columns, stay rowSets.
func TestKeyFilterBitmapMatchesRowSet(t *testing.T) {
	ctx := &evalCtx{prof: Native}
	build := func(rows [][]dict.ID, key []int) *keyFilter {
		t.Helper()
		cur := &Relation{Vars: []uint32{0, 1}, Rows: rows}
		f, err := newKeyFilter(ctx, cur, ArmSource{Vars: []uint32{0, 1}}, key)
		if err != nil || f == nil {
			t.Fatalf("newKeyFilter(%v): %v, %v", rows, f, err)
		}
		return f
	}
	col := func(ids ...dict.ID) [][]dict.ID {
		rows := make([][]dict.ID, len(ids))
		for i, id := range ids {
			rows[i] = []dict.ID{id, 7}
		}
		return rows
	}
	// reference is the rowSet the bitmap replaces, over the same keys.
	reference := func(rows [][]dict.ID) *keyFilter {
		f := &keyFilter{cols: []int{0}}
		for _, r := range rows {
			f.set.add([]dict.ID{r[0]})
		}
		return f
	}
	agree := func(name string, f, ref *keyFilter, probes []dict.ID) {
		t.Helper()
		for _, id := range probes {
			if got, want := f.has([]dict.ID{id}), ref.has([]dict.ID{id}); got != want {
				t.Fatalf("%s: key %d admitted %v, the rowSet says %v", name, id, got, want)
			}
		}
		if f.n != ref.set.len() {
			t.Fatalf("%s: %d keys counted, want %d", name, f.n, ref.set.len())
		}
	}

	edges := col(1000, 1063, 1064, 1127, 1128, 1064, 1000)
	f := build(edges, []int{0})
	if f.bits == nil || f.lo != 1000 || len(f.bits) != 3 {
		t.Fatalf("boundary keys: bits %d words from %d, want a 3-word bitmap from 1000", len(f.bits), f.lo)
	}
	probes := []dict.ID{0, 1, 999, 1000, 1001, 1062, 1063, 1064, 1065, 1126, 1127, 1128, 1129, 1191, 1192, 1 << 31, math.MaxUint32}
	agree("boundary keys", f, reference(edges), probes)
	for _, id := range []dict.ID{1000, 1063, 1064, 1127, 1128} {
		if !f.has([]dict.ID{id}) {
			t.Errorf("boundary keys: %d not admitted", id)
		}
	}

	// Two rows allow 8 words, 512 IDs: a span of 513 IDs is a rowSet.
	if f := build(col(10, 10+8*64), []int{0}); f.bits != nil {
		t.Errorf("a span of 513 IDs over 2 rows: a %d-word bitmap, want a rowSet", len(f.bits))
	}
	if f := build(col(10, 10+8*64-1), []int{0}); f.bits == nil {
		t.Error("a span of 512 IDs over 2 rows: a rowSet, want an 8-word bitmap")
	}
	wide := [][]dict.ID{{3, 4}, {3, 5}, {4, 4}}
	if f := build(wide, []int{0, 1}); f.bits != nil || !f.has([]dict.ID{3, 5}) || f.has([]dict.ID{4, 5}) || f.n != 3 {
		t.Errorf("two-column key: bitmap %v, %d keys; want a rowSet of the 3 rows", f.bits != nil, f.n)
	}

	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		lo, span := dict.ID(1+rng.Intn(1<<20)), 1+rng.Intn(600)
		ids := make([]dict.ID, 1+rng.Intn(40))
		for i := range ids {
			ids[i] = lo + dict.ID(rng.Intn(span))
		}
		rows := col(ids...)
		f := build(rows, []int{0})
		probes := []dict.ID{0, lo - 1, lo, lo + dict.ID(span), math.MaxUint32}
		for i := 0; i < 200; i++ {
			probes = append(probes, lo-64+dict.ID(rng.Intn(span+128)))
		}
		agree(fmt.Sprintf("round %d (%d keys over %d IDs, bitmap %v)", round, len(ids), span, f.bits != nil), f, reference(rows), probes)
	}
}

// memberOrder is joinOrder plus caching (per-arm order cache keyed by
// the member's renaming-invariant shape, cardinality memos shared across
// members, probes through the snapshot). The chosen orders must agree:
// evaluation orders members through memberOrder and estimation through
// joinOrder, and no answer-level test would see the two drift apart.
func TestMemberOrderAgreesWithJoinOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := storage.NewBuilder()
	for i := 0; i < 500; i++ {
		b.Add(storage.Triple{
			S: dict.ID(rng.Intn(60) + 1),
			P: dict.ID(rng.Intn(10) + 1),
			O: dict.ID(rng.Intn(60) + 1),
		})
	}
	raw := b.Build()
	e := New(raw, stats.Collect(raw, schema.Vocab{}), Native)
	ctx := &evalCtx{snap: raw.Snapshot()}
	sc := newArmScratch(ctx, nil)

	term := func() bgp.Term {
		if rng.Intn(2) == 0 {
			return bgp.V(uint32(rng.Intn(4) + 1))
		}
		return bgp.C(dict.ID(rng.Intn(60) + 1))
	}
	for qi := 0; qi < 200; qi++ {
		n := rng.Intn(4) + 1
		cq := bgp.CQ{Head: []bgp.Term{bgp.V(1)}}
		for i := 0; i < n; i++ {
			cq.Atoms = append(cq.Atoms, bgp.Atom{
				S: term(),
				P: bgp.C(dict.ID(rng.Intn(10) + 1)),
				O: term(),
			})
		}
		want := e.joinOrder(cq)
		got := e.memberOrder(ctx, sc, cq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%v): memberOrder %v, joinOrder %v", qi, cq.Atoms, got, want)
		}
		// The cached second call must return the same order.
		if again := e.memberOrder(ctx, sc, cq); !reflect.DeepEqual(again, want) {
			t.Fatalf("query %d: cached memberOrder %v, want %v", qi, again, want)
		}
	}
}
