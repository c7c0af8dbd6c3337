package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/dict"
	"repro/internal/trace"
)

// This file is the engine's parallelism layer: member CQs of one UCQ arm
// are independent scans under set semantics, sharded over a worker pool
// (evalArmSharded), and the final projection splits its input the same
// way. Arms are not run concurrently — each waits for the key filter the
// join of the arms before it yields (see evalArms), and arm-level
// concurrency measured 1.02x when it existed.
//
// Parallel evaluation returns byte-identical relations to sequential
// evaluation: each shard deduplicates locally in member order, and the
// shard outputs are re-deduplicated in global member order, so every row
// appears exactly where the first member producing it would have emitted
// it sequentially. Budgets live in shared atomics (see evalCtx), so the
// typed budget errors still fire on the *total* spent; on the success
// path the accumulated metrics are identical to the sequential ones
// (shard-local sets charge exactly the rows sequential dedup charges, and
// the merge charges nothing — see dedupSet.addMerged).

// memberBatch is the number of member CQs dispatched to a shard at once;
// batches round-robin over the shards so the merge order is a function of
// the member index alone.
const memberBatch = 32

// parallelRowThreshold is the input size below which the final projection
// stays sequential — goroutine handoff costs more than the projection.
const parallelRowThreshold = 4096

// shardResult is one shard's share of an arm evaluation: the shard set's
// locally fresh rows in dispatch order, and where each batch's rows end.
type shardResult struct {
	rows     [][]dict.ID // the shard's dedup set rows, first-occurrence order
	ends     []int       // rows[ends[k-1]:ends[k]] came from global batch k*shards+s
	err      error
	errBatch int // global index of the batch err occurred in
}

// evalArmSharded evaluates one arm's member CQs on ctx.par workers. The
// producer streams members into fixed-size batches, round-robin over the
// shards; every shard bind-joins its members against its own dedup set
// and notes where each batch's locally fresh rows end in it; the merge
// then walks the batches in global order through one final set, whose
// rows the relation adopts. See the file comment for why the result (and
// the success-path metrics) are exactly sequential.
func (e *Engine) evalArmSharded(ctx *evalCtx, sp *trace.Span, arm ArmSource, f *keyFilter) (*Relation, error) {
	shards := ctx.par
	type batch struct {
		idx int
		cqs []bgp.CQ
	}
	chans := make([]chan batch, shards)
	results := make([]*shardResult, shards)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		chans[s] = make(chan batch, 2)
		res := &shardResult{errBatch: -1}
		results[s] = res
		var shardSp *trace.Span
		if sp != nil {
			shardSp = sp.Child(fmt.Sprintf("shard[%d]", s))
		}
		wg.Add(1)
		go func(in chan batch, res *shardResult, shardSp *trace.Span) {
			defer wg.Done()
			dedup := newDedupSet(ctx)
			sc := newArmScratch(ctx, f)
			defer sc.release()
			var members int64
			for b := range in {
				if res.err != nil {
					continue // drain after a failure
				}
				// Each batch is planned as one window: merged scans form
				// within it, and the scan memo is shared with every other
				// shard through the evaluation context.
				n, err := e.evalMemberRun(ctx, sc, b.cqs, dedup)
				members += int64(n)
				if err != nil {
					res.err, res.errBatch = err, b.idx
					failed.Store(true)
					continue
				}
				res.ends = append(res.ends, dedup.size())
			}
			res.rows = dedup.set.rows
			if shardSp != nil {
				shardSp.SetInt("members", members)
				shardSp.SetInt("rows_out", int64(len(res.rows)))
				shardSp.SetInt("dedup_hits", dedup.hits)
				shardSp.SetInt("arena_chunks", int64(dedup.arena.chunks))
				shardSp.End()
			}
		}(chans[s], res, shardSp)
	}

	// Producer: the member stream is chunked into batches dispatched
	// round-robin, so batch k belongs to shard k mod shards.
	nextBatch := 0
	pending := make([]bgp.CQ, 0, memberBatch)
	flush := func() {
		chans[nextBatch%shards] <- batch{idx: nextBatch, cqs: pending}
		nextBatch++
		pending = make([]bgp.CQ, 0, memberBatch)
	}
	arm.Each(func(cq bgp.CQ) bool {
		if failed.Load() {
			return false
		}
		pending = append(pending, cq)
		if len(pending) == memberBatch {
			flush()
		}
		return true
	})
	if len(pending) > 0 {
		flush()
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	// Report the failure of the earliest batch in global member order:
	// the failure whose members sequential evaluation reaches first.
	var firstErr error
	firstBatch := -1
	for _, res := range results {
		if res.err != nil && (firstBatch == -1 || res.errBatch < firstBatch) {
			firstErr, firstBatch = res.err, res.errBatch
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Deterministic merge: batches in global order, one shared set.
	var mergeSp *trace.Span
	if sp != nil {
		mergeSp = sp.Child("merge")
		mergeSp.SetInt("batches", int64(nextBatch))
		defer mergeSp.End()
	}
	merge := newDedupSet(ctx)
	total := 0
	for _, res := range results {
		total += len(res.rows)
	}
	merge.set.grow(total)
	for b := 0; b < nextBatch; b++ {
		res, k := results[b%shards], b/shards
		start := 0
		if k > 0 {
			start = res.ends[k-1]
		}
		for _, row := range res.rows[start:res.ends[k]] {
			if _, err := merge.addMerged(row); err != nil {
				return nil, err
			}
		}
	}
	out := &Relation{Vars: arm.Vars, Rows: merge.set.rows}
	if mergeSp != nil {
		mergeSp.SetInt("rows_out", int64(out.Len()))
		mergeSp.SetInt("dedup_hits", merge.hits)
	}
	return out, nil
}

// projectDistinctParallel is projectDistinct on ctx.par workers: the
// input rows are split into contiguous chunks, projected and deduplicated
// locally, and the chunk outputs re-deduplicated in chunk order — the
// same local-set-then-ordered-merge scheme as evalArmSharded, with the
// same byte-identical-output and identical-metrics guarantees.
func projectDistinctParallel(ctx *evalCtx, sp *trace.Span, cur *Relation, cols []int, head []uint32) (*Relation, error) {
	workers := ctx.par
	chunk := (len(cur.Rows) + workers - 1) / workers
	type chunkResult struct {
		rows [][]dict.ID
		err  error
	}
	results := make([]chunkResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(cur.Rows) {
			break
		}
		if hi > len(cur.Rows) {
			hi = len(cur.Rows)
		}
		var chunkSp *trace.Span
		if sp != nil {
			chunkSp = sp.Child(fmt.Sprintf("chunk[%d]", w))
			chunkSp.SetInt("rows_in", int64(hi-lo))
		}
		wg.Add(1)
		go func(w, lo, hi int, chunkSp *trace.Span) {
			defer wg.Done()
			dedup := newDedupSet(ctx)
			var arena rowArena
			var rows [][]dict.ID
			defer func() {
				if chunkSp != nil {
					chunkSp.SetInt("rows_out", int64(len(rows)))
					chunkSp.SetInt("dedup_hits", dedup.hits)
					chunkSp.SetInt("arena_chunks", int64(arena.chunks))
					chunkSp.End()
				}
			}()
			for _, row := range cur.Rows[lo:hi] {
				proj := arena.alloc(len(cols))
				for i, c := range cols {
					proj[i] = row[c]
				}
				fresh, err := dedup.addOwned(proj)
				if err != nil {
					results[w].err = err
					return
				}
				if fresh {
					rows = append(rows, proj)
				} else {
					arena.release(proj)
				}
			}
			results[w].rows = rows
		}(w, lo, hi, chunkSp)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
	}
	out := &Relation{Vars: head}
	merge := newDedupSet(ctx)
	for _, res := range results {
		for _, row := range res.rows {
			fresh, err := merge.addMerged(row)
			if err != nil {
				return nil, err
			}
			if fresh {
				out.Rows = append(out.Rows, row)
				if err := ctx.checkRows(len(out.Rows)); err != nil {
					return nil, err
				}
			}
		}
	}
	if sp != nil {
		sp.SetInt("rows_out", int64(out.Len()))
		sp.SetInt("merge_dedup_hits", merge.hits)
	}
	return out, nil
}
