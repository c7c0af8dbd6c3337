package core

import (
	"context"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/reformulate"
)

// PricedFragments runs an ECov search for q and calls f with the
// reformulation and the raw statistics of every fragment it priced.
func (a *Answerer) PricedFragments(q bgp.CQ, f func(ref *reformulate.Reformulation, st cost.ArmStats)) error {
	_, _, s, err := a.chooseCover(context.Background(), q, ECov)
	if err != nil {
		return err
	}
	for _, info := range s.frags {
		f(info.ref, info.stats)
	}
	return nil
}
