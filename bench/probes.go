package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/storage"
)

// twin is the seed's dataset built from the same layers repro.Store
// composes, but with each layer in reach, so the probes can time calls
// into storage, stats, dict, sparql and reformulate directly.
type twin struct {
	dict   *dict.Dict
	closed *schema.Closed
	raw    *storage.Store
	stats  *stats.Stats
	loadS  float64 // Builder.Add + Build over the encoded triples
}

func buildTwin(seed int64, cfg lubm.Config) *twin {
	d := dict.New()
	vocab := schema.EncodeVocab(d)
	sch := schema.New(vocab)
	for _, t := range lubm.Ontology() {
		s, p, o := d.EncodeTriple(t)
		sch.AddTriple(s, p, o)
	}
	closed := sch.Close()
	var triples []storage.Triple
	lubm.Generate(1, seed, cfg, func(t rdf.Triple) {
		s, p, o := d.EncodeTriple(t)
		triples = append(triples, storage.Triple{S: s, P: p, O: o})
	})
	for _, c := range closed.ConstraintTriples() {
		triples = append(triples, storage.Triple{S: c[0], P: c[1], O: c[2]})
	}
	start := time.Now()
	b := storage.NewBuilder()
	for _, t := range triples {
		b.Add(t)
	}
	raw := b.Build()
	loadS := time.Since(start).Seconds()
	return &twin{dict: d, closed: closed, raw: raw, stats: stats.Collect(raw, vocab), loadS: loadS}
}

// Probe sizes: each probe takes well under a second at the full shape.
const (
	probeSamples = 2048 // sampled triples that seed the patterns
	probeRounds  = 5
	parseRounds  = 200
	// pendingDelta is the mixed workload's steady state: hold x batch
	// triples added and not yet compacted.
	pendingDelta = 200
)

// nsPer times f, which performs n operations, and returns ns per
// operation.
func nsPer(n int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(max(n, 1))
}

// probeLayers measures the layers below the engine one call at a time.
func probeLayers(seed int64, cfg lubm.Config, ops []op, vals map[string]float64) error {
	tw := buildTwin(seed, cfg)
	rng := rand.New(rand.NewSource(seed))
	n := tw.raw.Len()
	vals["storage.load_triples_per_s"] = float64(n) / tw.loadS
	fp := tw.raw.Footprint()
	vals["storage.blocks"] = float64(fp.Blocks)
	vals["storage.index_bytes_per_triple"] = fp.BytesPerTriple()

	// A seeded sample of the stored triples seeds every pattern.
	var sample []storage.Triple
	stride, i := max(n/probeSamples, 1), 0
	offset := rng.Intn(stride)
	tw.raw.Each(func(t storage.Triple) bool {
		if i%stride == offset {
			sample = append(sample, t)
		}
		i++
		return true
	})
	if len(sample) == 0 {
		return fmt.Errorf("probes: the store is empty")
	}
	var preds []dict.ID
	seenPred := make(map[dict.ID]bool)
	for _, t := range sample {
		if !seenPred[t.P] {
			seenPred[t.P] = true
			preds = append(preds, t.P)
		}
	}

	// storage, read side. One pass over every predicate is a few
	// milliseconds, short enough for one hiccup of the host to double it,
	// so a scan figure is the median of several passes.
	scan := func() float64 {
		sn := tw.raw.Snapshot()
		defer sn.Release()
		perTriple := make([]float64, 0, 2*probeRounds)
		for r := 0; r < cap(perTriple); r++ {
			scanned := 0
			ns := nsPer(1, func() {
				for _, p := range preds {
					sn.Scan(storage.Pattern{P: p}, func(storage.Triple) bool { scanned++; return true })
				}
			})
			perTriple = append(perTriple, ns/float64(max(scanned, 1)))
		}
		return median(perTriple)
	}
	compacted := scan()
	vals["storage.scan_ns_per_triple"] = compacted
	sn := tw.raw.Snapshot()
	found := 0
	vals["storage.seek_ns"] = nsPer(len(sample), func() {
		for _, t := range sample {
			found += sn.Count(storage.Pattern{S: t.S})
		}
	})
	if found < len(sample) {
		return fmt.Errorf("probes: %d sampled subjects counted only %d triples", len(sample), found)
	}
	rangeOK := 0
	for _, t := range sample {
		for _, p := range []storage.Pattern{{S: t.S}, {P: t.P, O: t.O}, {S: t.S, P: t.P}} {
			if _, ok := sn.Range(p); ok {
				rangeOK++
			}
		}
	}
	sn.Release()
	vals["storage.range_ok_share"] = float64(rangeOK) / float64(3*len(sample))
	vals["storage.snapshot_pin_ns"] = nsPer(len(sample), func() {
		for range sample {
			tw.raw.Snapshot().Release()
		}
	})

	// dict.
	ids := make([]dict.ID, len(sample))
	for i := range ids {
		ids[i] = dict.ID(1 + rng.Intn(tw.dict.Len()))
	}
	terms := make([]rdf.Term, len(ids))
	vals["dict.decode_ns_per_term"] = nsPer(len(ids)*probeRounds, func() {
		for r := 0; r < probeRounds; r++ {
			for i, id := range ids {
				terms[i] = tw.dict.Term(id)
			}
		}
	})
	missed := 0
	vals["dict.lookup_ns_per_term"] = nsPer(len(terms)*probeRounds, func() {
		for r := 0; r < probeRounds; r++ {
			for _, t := range terms {
				if _, ok := tw.dict.Lookup(t); !ok {
					missed++
				}
			}
		}
	})
	if missed > 0 {
		return fmt.Errorf("probes: dictionary lost %d of its own terms", missed)
	}

	// sparql and reformulate, per query of the workload.
	var parse, encode, reform time.Duration
	queries := distinctQueries(ops)
	nq := len(queries)
	for _, spec := range queries {
		var q *sparql.Query
		var cq bgp.CQ
		var err error
		start := time.Now()
		for r := 0; r < parseRounds; r++ {
			if q, err = sparql.Parse(spec.text); err != nil {
				return err
			}
		}
		parse += time.Since(start)
		start = time.Now()
		for r := 0; r < parseRounds; r++ {
			enc, err := sparql.Encode(q, tw.dict)
			if err != nil {
				return err
			}
			cq = enc.CQ
		}
		encode += time.Since(start)
		start = time.Now()
		for r := 0; r < probeRounds; r++ {
			if _, err := reformulate.Reformulate(cq, tw.closed); err != nil {
				return err
			}
		}
		reform += time.Since(start)
	}
	vals["sparql.parse_us"] = us(parse) / float64(nq*parseRounds)
	vals["sparql.encode_us"] = us(encode) / float64(nq*parseRounds)
	vals["reformulate.us_per_query"] = us(reform) / float64(nq*probeRounds)

	// storage write side and stats, on the twin only: the mixed
	// workload's pending delta, then its compaction.
	delta := make([]storage.Triple, pendingDelta)
	link := tw.dict.Encode(rdf.NewIRI("http://bench.example/linkedTo"))
	for i := range delta {
		delta[i] = storage.Triple{
			S: tw.dict.Encode(rdf.NewIRI(fmt.Sprintf("http://bench.example/s/%d", i))),
			P: link,
			O: tw.dict.Encode(rdf.NewIRI(fmt.Sprintf("http://bench.example/o/%d", i%20))),
		}
	}
	addAll := func() float64 {
		return nsPer(len(delta), func() {
			for _, t := range delta {
				tw.raw.Add(t)
			}
		})
	}
	vals["storage.add_us"] = addAll() / 1e3
	vals["storage.delta_scan_penalty"] = scan() / compacted

	// The adds bumped the store version, so the statistics memo is
	// stale: the first count of each pattern recomputes, the rest hit.
	patterns := make([]storage.Pattern, 0, 2*len(sample))
	for _, t := range sample {
		patterns = append(patterns, storage.Pattern{P: t.P, O: t.O}, storage.Pattern{S: t.S, P: t.P})
	}
	count := func() float64 {
		return nsPer(len(patterns), func() {
			for _, p := range patterns {
				tw.stats.PatternCount(p)
			}
		})
	}
	vals["stats.pattern_count_ns_cold"] = count()
	vals["stats.pattern_count_ns_warm"] = count()

	vals["storage.remove_us"] = nsPer(len(delta), func() {
		for _, t := range delta {
			tw.raw.Remove(t)
		}
	}) / 1e3
	addAll()
	vals["storage.compact_ms"] = nsPer(1, tw.raw.Compact) / 1e6
	if tw.raw.Len() != n+len(delta) {
		return fmt.Errorf("probes: store holds %d triples after compaction, want %d", tw.raw.Len(), n+len(delta))
	}
	return nil
}
