package core

import (
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Calibrate fits the cost-model constants for one engine by timing
// calibration queries against its store, the per-RDBMS step of the
// paper's Section 4.1 ("which we determine by running a set of simple
// calibration queries on the RDBMS being used"):
//
//   - single-pattern scans over the most frequent properties fit the
//     per-tuple scan+dedup rate (split between c_t and c_l);
//   - a two-arm JUCQ over the two most frequent properties fits the
//     arm-join and materialization rates (split between c_j and c_m);
//   - a tiny constant query fits the per-query overhead c_db.
//
// Costs are expressed in nanoseconds, so model values are comparable to
// wall-clock measurements. The NestedLoopArmJoin flag follows the
// engine's profile.
func Calibrate(eng *engine.Engine) cost.Params {
	p := cost.DefaultParams
	p.NestedLoopArmJoin = eng.Profile().ArmJoin == engine.NestedLoopJoin
	p.Provenance = "calibrated"

	props := frequentProperties(eng, 3)
	if len(props) == 0 {
		return p
	}

	// Scan rate: evaluate SELECT ?s ?o WHERE { ?s p ?o } per property.
	var scanNs, scanTuples float64
	for _, prop := range props {
		q := bgp.CQ{
			Head:  []bgp.Term{bgp.V(0), bgp.V(1)},
			Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(prop), O: bgp.V(1)}},
		}
		start := time.Now()
		_, m, err := eng.EvalCQ(q)
		if err != nil {
			continue
		}
		scanNs += float64(time.Since(start).Nanoseconds())
		scanTuples += float64(m.TuplesScanned)
	}
	if scanTuples > 0 {
		perTuple := scanNs / scanTuples
		// The scan query both reads and hashes every tuple; attribute
		// the rate evenly.
		p.CT = perTuple / 2
		p.CL = perTuple / 2
		p.CK = p.CL / 4
	}

	// Join and materialization rate: a two-arm JUCQ joined on the shared
	// subject variable.
	if len(props) >= 2 {
		armA := bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{{
			Head:  []bgp.Term{bgp.V(0)},
			Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(props[0]), O: bgp.V(1)}},
		}}}
		armB := bgp.UCQ{Vars: []uint32{0}, CQs: []bgp.CQ{{
			Head:  []bgp.Term{bgp.V(0)},
			Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(props[1]), O: bgp.V(2)}},
		}}}
		j := bgp.JUCQ{Head: []uint32{0}, Arms: []bgp.UCQ{armA, armB}}
		start := time.Now()
		_, m, err := eng.EvalJUCQ(j)
		if err == nil {
			elapsed := float64(time.Since(start).Nanoseconds())
			scanPart := float64(m.TuplesScanned) * (p.CT + p.CL)
			joinWork := float64(m.RowsJoined + m.RowsMaterialized)
			if joinWork > 0 {
				rate := (elapsed - scanPart) / joinWork
				// The scan part is itself an estimate; when it swallows
				// the whole measurement, fall back to pricing join and
				// materialization like scans rather than making them
				// free (which would bias the search toward plans with
				// huge intermediate results).
				if rate < p.CT/2 {
					rate = p.CT
				}
				p.CJ = rate / 2
				p.CM = rate / 2
			}
		}
	}

	// Fixed overhead: the cheapest possible query, repeated.
	tiny := bgp.CQ{
		Head:  []bgp.Term{bgp.V(0)},
		Atoms: []bgp.Atom{{S: bgp.V(0), P: bgp.C(props[0]), O: bgp.V(1)}},
	}
	const reps = 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, _, err := eng.EvalCQ(tiny); err != nil {
			break
		}
	}
	perQuery := float64(time.Since(start).Nanoseconds()) / reps
	// The overhead is what is left after the modeled work; keep a floor
	// so c_db never goes negative on fast stores.
	st := eng.Stats()
	work := float64(st.Property(props[0]).Count) * (p.CT + p.CL)
	if overhead := perQuery - work; overhead > 1000 {
		p.CDB = overhead
	} else {
		p.CDB = 1000
	}
	return p
}

// frequentProperties returns up to k property IDs by decreasing triple
// count, skipping rdf:type-like giants is unnecessary — frequent
// properties make calibration measurements stable.
func frequentProperties(eng *engine.Engine, k int) []dict.ID {
	type ps struct {
		id dict.ID
		n  int
	}
	var all []ps
	eng.Stats().EachProperty(func(id dict.ID, s stats.PropStat) bool {
		all = append(all, ps{id, s.Count})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	if len(all) > k {
		all = all[:k]
	}
	out := make([]dict.ID, len(all))
	for i, x := range all {
		out[i] = x.id
	}
	return out
}
