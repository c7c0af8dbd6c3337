package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniqueRegimes(t *testing.T) {
	p := DefaultParams
	small := p.Unique(100)
	if small != p.CL*100 {
		t.Errorf("in-memory dedup = %v, want %v", small, p.CL*100)
	}
	n := p.SpillThreshold * 4
	big := p.Unique(n)
	if big != p.CK*n*math.Log2(n) {
		t.Errorf("spilled dedup = %v, want n log n pricing", big)
	}
	if p.Unique(0) != 0 || p.Unique(-5) != 0 {
		t.Error("non-positive sizes must cost nothing")
	}
}

func TestJUCQSingleArmEqualsUCQ(t *testing.T) {
	p := DefaultParams
	arm := ArmStats{Arms: 10, ScanTuples: 1000, ResultTuples: 50}
	if got, want := p.JUCQ([]ArmStats{arm}, arm.ResultTuples), p.UCQ(arm); got != want {
		t.Errorf("JUCQ single arm %v != UCQ %v", got, want)
	}
}

func TestJUCQComponents(t *testing.T) {
	p := Params{CDB: 5, CT: 1, CJ: 2, CM: 3, CL: 4, CK: 1, SpillThreshold: 1e12}
	arms := []ArmStats{
		{Arms: 2, ScanTuples: 100, ResultTuples: 10},
		{Arms: 3, ScanTuples: 200, ResultTuples: 40}, // largest: pipelined
	}
	got := p.JUCQ(arms, 7)
	want := 5.0 + // c_db
		(1+2)*100 + 4*10 + // arm 1 eval + dedup
		(1+2)*200 + 4*40 + // arm 2 eval + dedup
		2*(10+40) + // arm join, linear
		3*10 + // materialize the smaller arm only
		4*7 // final dedup
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("JUCQ = %v, want %v", got, want)
	}
}

func TestNestedLoopArmJoinPricing(t *testing.T) {
	linear := DefaultParams
	nl := DefaultParams
	nl.NestedLoopArmJoin = true
	arms := []ArmStats{
		{ScanTuples: 10, ResultTuples: 10000},
		{ScanTuples: 10, ResultTuples: 20000},
	}
	if nl.JUCQ(arms, 10) <= linear.JUCQ(arms, 10) {
		t.Error("nested-loop pricing should exceed linear pricing on large arms")
	}
}

// Monotonicity: more scanned tuples, more result tuples, or more final
// tuples never makes a plan cheaper.
func TestMonotonicity(t *testing.T) {
	p := DefaultParams
	f := func(scan, res, extraScan, extraRes uint32) bool {
		base := ArmStats{ScanTuples: float64(scan % 1e6), ResultTuples: float64(res % 1e6)}
		bigger := ArmStats{
			ScanTuples:   base.ScanTuples + float64(extraScan%1e6),
			ResultTuples: base.ResultTuples + float64(extraRes%1e6),
		}
		other := ArmStats{ScanTuples: 50, ResultTuples: 5}
		c1 := p.JUCQ([]ArmStats{base, other}, 10)
		c2 := p.JUCQ([]ArmStats{bigger, other}, 10)
		return c2 >= c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyArms(t *testing.T) {
	p := DefaultParams
	if got := p.JUCQ(nil, 0); got != p.CDB {
		t.Errorf("empty JUCQ = %v, want the fixed overhead %v", got, p.CDB)
	}
}

func TestStringIncludesConstants(t *testing.T) {
	s := DefaultParams.String()
	if s == "" {
		t.Error("empty String")
	}
}

// Regression: |q| log|q| spill pricing with |q| < 2 used to go negative
// (log2(n) ≤ 0), and a NaN estimate slipped through the `n <= 0` guard,
// poisoning cover comparisons via NaN ordering.
func TestUniqueSpillEdgeCases(t *testing.T) {
	p := DefaultParams
	p.SpillThreshold = 0 // everything spills
	for _, n := range []float64{0.25, 0.5, 1, 1.5, 1.99} {
		if got := p.Unique(n); got < 0 || math.IsNaN(got) {
			t.Errorf("Unique(%v) = %v with zero spill threshold; want ≥ 0", n, got)
		}
		if got, min := p.Unique(n), p.CK*n; got < min {
			t.Errorf("Unique(%v) = %v, want at least one log factor %v", n, got, min)
		}
	}
	if got := p.Unique(math.NaN()); got != 0 {
		t.Errorf("Unique(NaN) = %v, want 0", got)
	}
	if got := p.Unique(math.Inf(-1)); got != 0 {
		t.Errorf("Unique(-Inf) = %v, want 0", got)
	}
}

// Regression: pricing covers containing zero-row arm estimates must stay
// finite, non-negative, and comparable even when dedup is forced to the
// spill regime.
func TestJUCQZeroRowArms(t *testing.T) {
	p := DefaultParams
	p.SpillThreshold = 0
	arms := []ArmStats{
		{Arms: 1, ScanTuples: 0, ResultTuples: 0},
		{Arms: 2, ScanTuples: 10, ResultTuples: 1},
	}
	got := p.JUCQ(arms, 0)
	if math.IsNaN(got) || got < p.CDB {
		t.Errorf("JUCQ with zero-row arms = %v, want finite ≥ c_db", got)
	}
	// A NaN-free model must give a total order: the zero-arm cover is
	// not more expensive than the same cover with extra work.
	more := p.JUCQ([]ArmStats{{Arms: 2, ScanTuples: 100, ResultTuples: 50}, arms[1]}, 40)
	if !(got <= more) {
		t.Errorf("zero-row cover (%v) should not exceed a strictly larger one (%v)", got, more)
	}
}
