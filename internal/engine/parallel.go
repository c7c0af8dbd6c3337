package engine

import (
	"fmt"
	"sync"

	"repro/internal/dict"
	"repro/internal/trace"
)

// This file is the engine's one intra-query parallelism: the final
// projection splits its input over ctx.par workers. Arms run one after
// another (each waits for the key filter of the join before it), and the
// members of an arm are evaluated serially as member families: sharding
// them over workers split the families that share probes, and measured
// 0.99x warm and 1.03x cold over the 28 LUBM queries (DESIGN.md,
// "Parallel evaluation").

// parallelRowThreshold is the input size below which the final projection
// stays sequential — goroutine handoff costs more than the projection.
const parallelRowThreshold = 4096

// projectDistinctParallel is projectDistinct on ctx.par workers: the
// input rows are split into contiguous chunks, projected and deduplicated
// locally, and the chunk outputs re-deduplicated in chunk order, so the
// output rows and the metrics are exactly the sequential projection's.
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
