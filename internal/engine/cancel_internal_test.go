package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// wideArm streams n copies of a full-scan member CQ — enough repeated
// work that a deadline in the low milliseconds always expires mid-flight.
func wideArm(n int) ArmSource {
	member := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0), bgp.V(2)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.V(1), O: bgp.V(2)}},
	}
	return ArmSource{
		Vars:   []uint32{0, 2},
		NumCQs: int64(n),
		Leaves: int64(n),
		Each: func(f func(bgp.CQ) bool) bool {
			for i := 0; i < n; i++ {
				if !f(member) {
					return false
				}
			}
			return true
		},
	}
}

// A context canceled before admission must fail with the typed
// ErrCanceled without scanning anything, and still release the pinned
// snapshot.
func TestPreCanceledContextFailsBeforeWork(t *testing.T) {
	e := testkit.Random(21, 60)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snap *storage.Snapshot
	evalSnapshotHook = func(sn *storage.Snapshot) { snap = sn }
	eng := New(raw, st, Native).WithContext(ctx)
	rel, m, err := eng.EvalArms([]uint32{0, 2}, []ArmSource{wideArm(100)})
	evalSnapshotHook = nil
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want %v", err, ErrCanceled)
	}
	if rel != nil {
		t.Errorf("relation = %d rows, want nil on cancellation", rel.Len())
	}
	if m.TuplesScanned != 0 {
		t.Errorf("scanned %d tuples before admission check", m.TuplesScanned)
	}
	if snap == nil || !snap.Released() {
		t.Error("snapshot not released on the pre-canceled path")
	}
}

// A deadline expiring mid-evaluation must stop the evaluation early
// (strictly less work than the uncancelled run), surface ErrCanceled, and
// release the snapshot.
func TestDeadlineStopsEvaluationEarly(t *testing.T) {
	e := testkit.Random(22, 80)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	const members = 200_000
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	var snap *storage.Snapshot
	evalSnapshotHook = func(sn *storage.Snapshot) { snap = sn }
	eng := New(raw, st, Native).WithContext(ctx)
	rel, m, err := eng.EvalArms([]uint32{0, 2}, []ArmSource{wideArm(members)})
	evalSnapshotHook = nil
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want %v", err, ErrCanceled)
	}
	if rel != nil {
		t.Errorf("relation = %d rows, want nil on cancellation", rel.Len())
	}
	// Each member scans the whole 80+-triple store; finishing all
	// members would charge far more than this. Stopping early is the
	// point of the seam.
	fullWork := int64(members) * int64(raw.Len())
	if m.Work >= fullWork {
		t.Errorf("work = %d, evaluation did not stop early (full ≈ %d)", m.Work, fullWork)
	}
	if snap == nil || !snap.Released() {
		t.Error("snapshot not released on the cancellation path")
	}
}

// An engine carrying an uncancelable context must behave exactly like one
// carrying none: same rows, same metrics (the done channel of
// context.Background is nil, so the poll stays disabled).
func TestBackgroundContextIsFree(t *testing.T) {
	e := testkit.Random(23, 60)
	raw := e.RawStore()
	st := stats.Collect(raw, e.Vocab)
	arm := wideArm(50)
	plain, pm, err := New(raw, st, Native).EvalArms([]uint32{0, 2}, []ArmSource{arm})
	if err != nil {
		t.Fatal(err)
	}
	bg, bm, err := New(raw, st, Native).WithContext(context.Background()).
		EvalArms([]uint32{0, 2}, []ArmSource{arm})
	if err != nil {
		t.Fatal(err)
	}
	if pm != bm {
		t.Errorf("metrics with background context %+v differ from plain %+v", bm, pm)
	}
	if plain.Len() != bg.Len() {
		t.Errorf("rows with background context = %d, plain = %d", bg.Len(), plain.Len())
	}
}
