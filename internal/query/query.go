// Package query is the unified parallel query-pipeline layer: the
// fan-out/merge/finish scaffolding every parallel compiled query shares,
// extracted from the hand-rolled Par drivers it replaced.
//
// The paper's query-dominated design generates per-thread query state
// and merges it after the scan; a pipeline stage is exactly that shape,
// made reusable:
//
//   - Fan-out: a stage drives the source's block-sharded parallel scan
//     (mem.ScanParallelPredCtx underneath — one §5.2 decision pass, pooled
//     worker sessions, atomic-cursor work stealing). Each worker builds
//     private state: a region.PartitionedTable in a leased arena
//     (Table), a padded plain accumulator (Accum), or a row buffer
//     (Rows). The hot loop writes zero shared mutable state.
//   - Merge: worker tables fold together per partition in parallel
//     (region.ParallelMergeInto) under a worker-order-deterministic
//     schedule; plain accumulators fold in worker order. Group state
//     stays in region tables — it never spills back into Go-heap maps.
//   - Finish: dimension-resolution passes shard over the dimension
//     collection's blocks (Rows) or over the merged table's partitions
//     (PartitionRows), both parallel.
//
// A Pipeline owns the memory lifecycle: every arena any stage leases
// from the region.ArenaPool is tracked and returned by Close, so a
// driver is "lease-free": build a pipeline, compose stages, defer
// Close. Stages may feed each other: a merged table from one Table
// stage can be probed read-only by the next stage's kernel (Q5's
// revenue table feeding its nation-resolution pass), and a KeyRanges
// stage's key set prunes the next stage's scan (Q3's and Q10's orders
// keys over the lineitem scan).
package query

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/region"
)

// Source is the scan side of a pipeline stage: anything that can shard
// its resolved block list across workers. *core.Collection[T]
// implements it for every element type. Stages pass a nil predicate;
// Where supplies one.
type Source interface {
	// ParallelBlocksPredCtx is core.Collection.ParallelBlocksPredCtx:
	// pred is pushed into the block-resolution pass (synopsis pruning),
	// and workers observe ctx at block-claim granularity, the scan
	// returning the cancellation cause once every worker has unwound.
	ParallelBlocksPredCtx(ctx context.Context, s *core.Session, workers int, pred *mem.ScanPredicate, fn func(worker int, ws *core.Session, b *mem.Block) error) error
}

// PredSource is Source under the name benchmark/ imports.
type PredSource = Source

// Where wraps a source with a pushed-down scan predicate: every stage
// driven from the returned Source scans only blocks whose synopsis
// bounds can intersect pred. Pruning is an optimization, never a
// semantics change — the stage kernel must keep evaluating its full
// residual predicate per row, exactly as it does unwrapped. A nil pred
// returns src unchanged.
func Where(src Source, pred *mem.ScanPredicate) Source {
	if pred == nil {
		return src
	}
	return &whereSource{src: src, pred: pred}
}

type whereSource struct {
	src  Source
	pred *mem.ScanPredicate
}

// ParallelBlocksPredCtx scans under w's predicate. Stages pass nil; there
// is no predicate conjunction, so wrapping a Where source in another
// Where is a programming error.
func (w *whereSource) ParallelBlocksPredCtx(ctx context.Context, s *core.Session, workers int, pred *mem.ScanPredicate, fn func(worker int, ws *core.Session, b *mem.Block) error) error {
	if pred != nil {
		panic("query: Where source scanned with a second predicate")
	}
	return w.src.ParallelBlocksPredCtx(ctx, s, workers, w.pred, fn)
}

// Pipeline carries one parallel query's execution state: the
// coordinator session, the worker count, and every arena leased on the
// query's behalf. It is single-goroutine (the driver's), like the
// session it wraps; the concurrency lives inside the stages.
type Pipeline struct {
	s       *core.Session
	pool    *region.ArenaPool
	workers int
	ctx     context.Context

	mu     sync.Mutex
	arenas []*region.Arena
}

// New builds a pipeline over the coordinator session s, leasing query
// memory from pool, fanning stages out over `workers` (floored at 1).
// The pipeline runs under context.Background() — never canceled, exempt
// from budget admission; use NewCtx for cancelable, admission-gated
// queries.
func New(s *core.Session, pool *region.ArenaPool, workers int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	return &Pipeline{s: s, pool: pool, workers: workers, ctx: context.Background()}
}

// NewCtx is New bound to a context, with admission control through
// mem.Governor.Admit: when the runtime's governed memory total (block
// heap plus arena retention plus synopses) is over its limit, one
// reclaim pass releases idle arenas and parked sessions and wakes
// compaction, and the call queues — bounded by the context deadline or
// the governor's fixed wait, whichever is sooner — returning
// mem.ErrBudgetExceeded when that could not make room. Load-shedding
// happens before the query leases anything.
// Every stage of the returned pipeline observes ctx at block-claim
// granularity; a canceled stage returns the cancellation cause after
// all its workers unwind, and Close still returns every leased arena.
func NewCtx(ctx context.Context, s *core.Session, pool *region.ArenaPool, workers int) (*Pipeline, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Mem().Manager().Governor().Admit(ctx); err != nil {
		return nil, err
	}
	p := New(s, pool, workers)
	p.ctx = ctx
	return p, nil
}

// Workers returns the pipeline's worker count.
func (p *Pipeline) Workers() int { return p.workers }

// Context returns the context the pipeline's stages run under.
func (p *Pipeline) Context() context.Context { return p.ctx }

// Session returns the coordinator session.
func (p *Pipeline) Session() *core.Session { return p.s }

// Lease leases an arena from the pipeline's pool and tracks it for
// Close. Safe to call from stage workers concurrently.
func (p *Pipeline) Lease() *region.Arena {
	a := p.pool.Lease()
	p.mu.Lock()
	p.arenas = append(p.arenas, a)
	p.mu.Unlock()
	return a
}

// Close returns every leased arena to the pool. The pipeline's tables
// die with their arenas, so call it only after the query's rows have
// been fully materialized. Idempotent.
func (p *Pipeline) Close() {
	p.mu.Lock()
	arenas := p.arenas
	p.arenas = nil
	p.mu.Unlock()
	for _, a := range arenas {
		p.pool.Return(a)
	}
}

// padded wraps per-worker state so adjacent workers never share a cache
// line in the hot fold loop.
type padded[T any] struct {
	v T
	_ [64]byte
}

// panicToError converts a recovered panic value into a query-scoped
// error wrapping mem.ErrWorkerPanic, matching the conversion the scan
// layer applies to panics inside scan workers.
func panicToError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%w: %w", mem.ErrWorkerPanic, err)
	}
	return fmt.Errorf("%w: %v", mem.ErrWorkerPanic, r)
}

// Table runs a table-building stage: every scan worker leases a private
// arena and folds blocks into a private region.PartitionedTable[V] via
// kernel, and after the scan the workers' tables merge per partition in
// parallel (region.ParallelMergeInto) into merge-shard arenas, in worker
// order within each partition — deterministic whenever merge itself is.
// The returned table lives in pipeline-tracked arenas (valid until
// p.Close); it is nil when no worker saw a qualifying row. A non-nil
// error (cancellation, worker-session exhaustion, a worker or merge
// panic) is the query's error: callers return it, never retry serially.
func Table[V any](p *Pipeline, src Source, capHint int,
	kernel func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[V]),
	merge func(dst, src *V),
) (merged *region.PartitionedTable[V], err error) {
	// Every worker table (and the merge destination) uses the same parts
	// argument, so NewPartitionedTable's power-of-two rounding keeps the
	// equal-partition-count invariant for free.
	parts := p.workers
	tables := make([]padded[*region.PartitionedTable[V]], p.workers)
	err = src.ParallelBlocksPredCtx(p.ctx, p.s, p.workers, nil, func(w int, ws *core.Session, blk *mem.Block) error {
		t := tables[w].v
		if t == nil {
			t = region.NewPartitionedTable[V](p.Lease(), parts, capHint)
			tables[w].v = t
		}
		kernel(ws, blk, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	built := make([]*region.PartitionedTable[V], 0, p.workers)
	for _, t := range tables {
		if t.v != nil {
			built = append(built, t.v)
		}
	}
	switch len(built) {
	case 0:
		return nil, nil
	case 1:
		// One worker built state: its table is the merged state, and the
		// 1-worker baseline pays zero merge overhead.
		return built[0], nil
	}
	shards := p.workers
	if n := built[0].Parts(); shards > n {
		shards = n
	}
	arenas := make([]*region.Arena, shards)
	for i := range arenas {
		arenas[i] = p.Lease()
	}
	// ParallelMergeInto re-raises a merge-shard panic on this goroutine;
	// convert it to a query-scoped error so one poisoned merge callback
	// cannot take the process down (the leased arenas stay tracked and
	// Close returns them).
	defer func() {
		if r := recover(); r != nil {
			merged, err = nil, panicToError(r)
		}
	}()
	return region.ParallelMergeInto(arenas, built, merge), nil
}

// Accum runs a plain-accumulator stage: every scan worker folds blocks
// into a private cache-line-padded A via kernel, and the partials merge
// in worker order after the scan (only workers that received blocks
// participate — A's zero value never reaches merge). The returned
// pointer addresses the merged accumulator; when no worker received a
// block it addresses A's zero value.
func Accum[A any](p *Pipeline, src Source,
	kernel func(w int, ws *core.Session, blk *mem.Block, acc *A),
	merge func(dst, src *A),
) (*A, error) {
	type wacc struct {
		acc  A
		used bool
	}
	accs := make([]padded[wacc], p.workers)
	err := src.ParallelBlocksPredCtx(p.ctx, p.s, p.workers, nil, func(w int, ws *core.Session, blk *mem.Block) error {
		a := &accs[w].v
		a.used = true
		kernel(w, ws, blk, &a.acc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out *A
	for w := range accs {
		if !accs[w].v.used {
			continue
		}
		if out == nil {
			out = &accs[w].v.acc
		} else {
			merge(out, &accs[w].v.acc)
		}
	}
	if out == nil {
		out = &accs[0].v.acc
	}
	return out, nil
}

// Rows runs a finishing/dimension-resolution stage: the source's blocks
// shard across the pipeline's workers, each emitting into a private row
// buffer, and the buffers concatenate in worker order. Block-to-worker
// assignment is work-stealing, so the concatenation order is not
// deterministic — callers sort with a total order, as every compiled
// query's finish already does. emit runs inside the worker's critical
// section (dereferences and string reads are safe). The result is
// always non-nil.
func Rows[R any](p *Pipeline, src Source,
	emit func(ws *core.Session, blk *mem.Block, out *[]R),
) ([]R, error) {
	bufs := make([]padded[[]R], p.workers)
	err := src.ParallelBlocksPredCtx(p.ctx, p.s, p.workers, nil, func(w int, ws *core.Session, blk *mem.Block) error {
		emit(ws, blk, &bufs[w].v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]R, 0)
	for w := range bufs {
		out = append(out, bufs[w].v...)
	}
	return out, nil
}

// KeyRanges runs a key-range stage for cross-edge semi-join pruning. It
// reads no rows: over src's admitted blocks (one worker; under a Where
// source, exactly the blocks its predicate admits) it takes each block's
// synopsis bounds on column and merges them into a mem.KeySetPredicate
// of sorted disjoint ranges. Combine the result with the next edge's
// predicate via ScanPredicate.InKeySet so blocks whose synopsis bounds
// overlap no range are never claimed.
//
// The set is sound under the synopsis invariants: a pruned block holds
// no qualifying row, and an admitted block's bounds cover every key it
// holds (insert widens). It is coarser than the qualifying keys — a
// whole admitted block's key span survives — so the next stage's kernel
// keeps its full residual join. A block without bounds on column (the
// column has no registered synopsis) contributes the whole key domain.
// The returned predicate is never nil; when no block is admitted it is
// Empty (and InKeySet over it prunes every block, matching semi-join
// semantics).
func KeyRanges(p *Pipeline, src Source, column string) (*mem.KeySetPredicate, error) {
	var ranges []mem.KeyRange
	err := src.ParallelBlocksPredCtx(p.ctx, p.s, 1, nil, func(_ int, _ *core.Session, blk *mem.Block) error {
		lo, hi, ok := blk.SynopsisBounds(column)
		if !ok {
			lo, hi = math.MinInt64, math.MaxInt64
		}
		ranges = append(ranges, mem.KeyRange{Lo: lo, Hi: hi})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mem.NewKeyRangePredicate(ranges), nil
}

// RowsUnordered runs a streaming finishing stage: like Rows, the
// source's blocks shard across the pipeline's workers and emit fills a
// per-block row buffer, but each block's rows are handed to sink as soon
// as that block completes instead of waiting for the scan to finish and
// concatenating in worker order. sink calls are serialized (no internal
// locking needed) but arrive in no deterministic order — block-to-worker
// assignment is work-stealing — so consumers needing a total order must
// sort, exactly as Rows callers already do. The rows slice passed to
// sink is reused for the worker's next block: consume or copy it inside
// the call, never retain it. A sink error stops the scan early and is
// returned; emit runs inside the worker's critical section, sink does
// not hold any block.
func RowsUnordered[R any](p *Pipeline, src Source,
	emit func(ws *core.Session, blk *mem.Block, out *[]R),
	sink func(rows []R) error,
) error {
	bufs := make([]padded[[]R], p.workers)
	var mu sync.Mutex
	return src.ParallelBlocksPredCtx(p.ctx, p.s, p.workers, nil, func(w int, ws *core.Session, blk *mem.Block) error {
		buf := bufs[w].v[:0]
		emit(ws, blk, &buf)
		bufs[w].v = buf
		if len(buf) == 0 {
			return nil
		}
		mu.Lock()
		err := sink(buf)
		mu.Unlock()
		return err
	})
}

// forEachPartition walks the merged table's partitions sharded across
// the pipeline's workers: fn(i, partition) runs exactly once per
// partition, concurrently across shards. fn must treat the table as
// read-only (partitions are disjoint, so per-partition reads race with
// nothing) and must not touch collections — partition walks need no
// session. A nil table is a no-op. A panic in fn unwinds every shard
// and comes back as a query-scoped error wrapping mem.ErrWorkerPanic
// (remaining partitions of the panicking shard are skipped; other
// shards finish their walk).
func forEachPartition[V any](p *Pipeline, t *region.PartitionedTable[V], fn func(part int, pt *region.Table[V])) error {
	if t == nil {
		return nil
	}
	parts := t.Parts()
	shards := p.workers
	if shards > parts {
		shards = parts
	}
	if shards <= 1 {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = panicToError(r)
				}
			}()
			for i := 0; i < parts; i++ {
				fn(i, t.Partition(i))
			}
			return nil
		}()
		return err
	}
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = panicToError(r)
					}
					errMu.Unlock()
				}
			}()
			for i := g; i < parts; i += shards {
				fn(i, t.Partition(i))
			}
		}(g)
	}
	wg.Wait()
	return firstErr
}

// PartitionRows materializes rows from a merged table, one private
// buffer per partition in parallel, concatenated in partition order —
// deterministic given the merged table, unlike a Rows scan. The result
// is always non-nil when err is nil; a panic in emit surfaces as a
// query-scoped error (see forEachPartition).
func PartitionRows[V, R any](p *Pipeline, t *region.PartitionedTable[V],
	emit func(pt *region.Table[V], out *[]R),
) ([]R, error) {
	out := make([]R, 0)
	if t == nil {
		return out, nil
	}
	bufs := make([]padded[[]R], t.Parts())
	if err := forEachPartition(p, t, func(i int, pt *region.Table[V]) {
		emit(pt, &bufs[i].v)
	}); err != nil {
		return nil, err
	}
	for i := range bufs {
		out = append(out, bufs[i].v...)
	}
	return out, nil
}
