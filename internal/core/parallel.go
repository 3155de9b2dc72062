package core

import (
	"context"

	"repro/internal/mem"
)

// Parallel typed scans over a collection: the compiled-query-style
// fan-out of mem.ScanParallelPredCtx lifted to the collection API. One §5.2
// decision pass resolves the block list, then per-worker sessions scan
// disjoint blocks claimed from an atomic cursor; typed aggregates fold
// into per-worker partial accumulators that are merged at the end.

// ParallelBlocksPredCtx shards the collection's resolved block list
// across `workers` goroutines for compiled-query-style callers that scan
// slot directories themselves. fn runs once per block with the worker's
// index and session; returning mem.ErrStopScan ends the scan early and
// cleanly. fn must not share mutable state across workers without its
// own synchronization — index per-worker state by the worker argument.
//
// pred (nil scans everything) is pushed into the coordinator's one-shot
// decision pass: pruned blocks never enter the resolved block list, so
// no worker, cursor claim or session ever touches them. fn still sees
// every block that might hold a matching row and must keep evaluating
// the residual predicate per row. cctx is observed at block-claim
// granularity (one channel poll per claimed block; a Background context
// adds nothing), and a canceled scan returns the cancellation cause once
// every worker has unwound.
func (c *Collection[T]) ParallelBlocksPredCtx(cctx context.Context, s *Session, workers int, pred *mem.ScanPredicate, fn func(worker int, ws *Session, b *mem.Block) error) error {
	if workers < 1 {
		workers = 1
	}
	wrappers := make([]*Session, workers)
	return c.ctx.ScanParallelPredCtx(cctx, s.ms, workers, pred, func(w int, ws *mem.Session, b *mem.Block) error {
		cs := wrappers[w]
		if cs == nil {
			if ws == s.ms {
				cs = s
			} else {
				cs = &Session{ms: ws}
			}
			wrappers[w] = cs
		}
		return fn(w, cs, b)
	})
}

// padded wraps per-worker state so adjacent workers' values never share
// a cache line in the hot fold loop (the compiled tpch kernels pad their
// accumulators the same way).
type padded[T any] struct {
	v T
	_ [64]byte
}

// ParallelForEachPred invokes fn for every object in the collection
// from `workers` goroutines, each inside its own session and critical
// section. Visitation has the enumerator's exactly-once bag semantics:
// the compaction-group decisions are made once for the whole scan, so an
// object is seen either in its pre-relocation block or its target, never
// both. fn returning false stops the scan across all workers. fn must be
// safe for concurrent invocation; v is a per-worker scratch value that is
// only valid for the duration of the call.
//
// pred (nil scans everything) skips blocks provably holding no matching
// row; fn still sees every object of the remaining blocks (including
// non-matching ones — apply the residual predicate inside fn).
func (c *Collection[T]) ParallelForEachPred(s *Session, workers int, pred *mem.ScanPredicate, fn func(worker int, ref Ref[T], v *T) bool) error {
	if workers < 1 {
		workers = 1
	}
	tmps := make([]padded[T], workers)
	return c.ParallelBlocksPredCtx(context.Background(), s, workers, pred, func(w int, ws *Session, b *mem.Block) error {
		tmp := &tmps[w].v
		n := b.Capacity()
		for slot := 0; slot < n; slot++ {
			if !b.SlotIsValid(slot) {
				continue
			}
			obj := mem.Obj{Blk: b, Slot: slot}
			if c.layout != mem.Columnar {
				obj.Ptr = b.SlotData(slot)
			}
			c.unmarshal(ws, obj, tmp)
			if !fn(w, Ref[T]{R: c.ctx.MakeRef(b, slot)}, tmp) {
				return mem.ErrStopScan
			}
		}
		return nil
	})
}

// ParallelAggregatePred scans c with `workers` goroutines, folding every
// object into a per-worker partial accumulator and merging the partials
// once the scan completes. init builds a worker's accumulator lazily (it
// is only called for workers that receive blocks), fold absorbs one
// object, and merge combines two partials; merge is called in worker
// order, so order-sensitive accumulators see a deterministic merge
// sequence for a quiesced collection. An empty collection returns
// init(0). pred (nil scans everything) keeps synopsis-pruned blocks from
// fold; every remaining object reaches it, so fold must keep applying
// the residual predicate itself.
func ParallelAggregatePred[T, A any](c *Collection[T], s *Session, workers int, pred *mem.ScanPredicate,
	init func(worker int) A,
	fold func(acc A, ref Ref[T], v *T) A,
	merge func(into, from A) A,
) (A, error) {
	if workers < 1 {
		workers = 1
	}
	type workerAcc struct {
		acc    A
		inited bool
	}
	accs := make([]padded[workerAcc], workers)
	err := c.ParallelForEachPred(s, workers, pred, func(w int, ref Ref[T], v *T) bool {
		a := &accs[w].v
		if !a.inited {
			a.acc = init(w)
			a.inited = true
		}
		a.acc = fold(a.acc, ref, v)
		return true
	})
	if err != nil {
		var zero A
		return zero, err
	}
	var out A
	first := true
	for w := range accs {
		if !accs[w].v.inited {
			continue
		}
		if first {
			out = accs[w].v.acc
			first = false
		} else {
			out = merge(out, accs[w].v.acc)
		}
	}
	if first {
		out = init(0)
	}
	return out, nil
}

// ParallelGroupBy generalizes ParallelAggregatePred to keyed partial states:
// each worker folds the objects it scans into a private map of per-group
// accumulators (zero shared mutable state in the hot loop), and the
// partial maps merge after the scan. key selects an object's group and
// may reject the object (ok=false) to keep filtered rows out of the
// maps; fold absorbs one object into its group's accumulator, starting
// from A's zero value; merge combines two partials for the same key and
// is applied in worker order, so the merged state is deterministic for a
// quiesced collection whenever merge itself is.
func ParallelGroupBy[T any, K comparable, A any](c *Collection[T], s *Session, workers int,
	key func(ref Ref[T], v *T) (K, bool),
	fold func(acc A, ref Ref[T], v *T) A,
	merge func(into, from A) A,
) (map[K]A, error) {
	if workers < 1 {
		workers = 1
	}
	groups := make([]padded[map[K]A], workers)
	err := c.ParallelForEachPred(s, workers, nil, func(w int, ref Ref[T], v *T) bool {
		k, ok := key(ref, v)
		if !ok {
			return true
		}
		g := groups[w].v
		if g == nil {
			g = make(map[K]A)
			groups[w].v = g
		}
		g[k] = fold(g[k], ref, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make(map[K]A)
	for w := range groups {
		for k, a := range groups[w].v {
			if cur, ok := out[k]; ok {
				out[k] = merge(cur, a)
			} else {
				out[k] = a
			}
		}
	}
	return out, nil
}
