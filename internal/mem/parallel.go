package mem

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// Parallel block-sharded scans. The block/slot-directory design is
// embarrassingly parallel by construction: blocks are independent scan
// units, and the §5.2 compaction protocol synchronizes on compaction
// groups, not on individual readers. A parallel scan therefore needs
// exactly one piece of shared coordination — the enumeration's view of
// the world — and can fan the actual block work out to any number of
// workers.
//
// Protocol ("one decision pass, N worker sessions, merge step"):
//
//  1. A coordinator session takes one block-order snapshot and makes the
//     §5.2 pre/post decision for every compaction group it encounters,
//     exactly once per enumeration — never per worker — pinning pre-state
//     groups and waiting out (helping) moving ones. The result is one
//     resolved block list with exactly-once semantics.
//  2. The coordinator's critical section stays pinned at the snapshot
//     epoch (no Refresh) until the scan closes. That pin is load-bearing:
//     a compaction planned after our snapshot can never complete its
//     freezing/relocation epoch waits while we hold it, so it aborts
//     without moving anything (§5.1's bail-out path) and the resolved
//     list stays authoritative. It also keeps every snapshot block's
//     memory mapped: burials ripen two epochs after the pin, which the
//     pinned epoch can never reach.
//  3. Workers — each with its own registered Session in its own critical
//     section — claim block indices from an atomic cursor (work
//     stealing: fast workers drain the tail, no static partitioning
//     imbalance).
//
// Robustness contract: scans are cancellable at block-claim granularity
// (one non-blocking channel poll per claimed block, skipped entirely for
// Background contexts) and panic-isolated (a kernel panic in any worker
// unwinds that worker, stops the scan, and surfaces as an ErrWorkerPanic
// error on the caller — sessions, pins and the coordinator's critical
// section are still released exactly once).
//
// ErrStopScan is the cooperative early-stop signal: a worker returning it
// stops the whole scan without reporting an error.
var ErrStopScan = errors.New("mem: scan stopped early")

// ErrWorkerPanic wraps a panic recovered from a scan, merge or compaction
// worker goroutine: the failure is scoped to the operation that ran the
// kernel, not the process. Inspect with errors.Is.
var ErrWorkerPanic = errors.New("mem: worker panicked")

// recoverToError converts a recovered panic value into an ErrWorkerPanic-
// wrapped error, preserving fault.PanicValue and error payloads.
func recoverToError(r any) error {
	switch v := r.(type) {
	case error:
		return fmt.Errorf("%w: %w", ErrWorkerPanic, v)
	default:
		return fmt.Errorf("%w: %v", ErrWorkerPanic, v)
	}
}

// ParallelScan is a resolved, shardable enumeration of one context. It is
// created by NewParallelScanPredCtx, drained from any number of
// goroutines via Next, and must be Closed to release its group pins and
// the coordinator's critical section.
type ParallelScan struct {
	coord  *Session
	blocks []*Block
	pinned []*CompactionGroup
	cursor atomic.Int64
	stop   atomic.Bool
	closed bool

	// done/cause mirror Enumerator's cancellation plumbing: Next polls
	// done once per claimed block; nil (Background) costs nothing.
	done  <-chan struct{}
	cause func() error
	err   atomic.Pointer[error]
}

// NewParallelScanPredCtx snapshots the context's block order and
// resolves every §5.2 compaction-group decision once, returning a scan
// whose block list can be drained concurrently. It enters a critical
// section on the coordinator session and holds it — without refreshing —
// until Close; the caller must not Refresh the coordinator while the scan
// is open.
//
// pred (nil scans everything) is evaluated against each block's synopsis
// bounds exactly once, in the same decision pass, so pruned blocks never
// enter the resolved list — workers, the work-stealing cursor and
// per-worker sessions never see them. Pruning is sound, not exact:
// workers keep evaluating the residual predicate per row.
//
// cctx (nil or Background costs nothing) is checked between blocks of
// the resolution pass and once per claimed block by Next, so a canceled
// scan returns within one block's work. The scan must still be Closed —
// cancellation never leaks pins or the coordinator's critical section.
// Err reports the cause.
func (c *Context) NewParallelScanPredCtx(cctx context.Context, s *Session, pred *ScanPredicate) *ParallelScan {
	if pred != nil && pred.ctx != c {
		panic(errPredWrongContext) // before Enter: a misuse must not leak the critical section
	}
	s.Enter()
	e := c.newEnumerator(cctx, s, pred)
	e.noRefresh = true
	ps := &ParallelScan{coord: s, done: e.done, cause: e.cause}
	var blocks []*Block
	for {
		b, ok := e.NextBlock()
		if !ok {
			break
		}
		blocks = append(blocks, b)
	}
	if e.err != nil {
		// Canceled mid-resolution: keep whatever pins were taken (Close
		// releases them) but never hand a block to a worker.
		ps.stop.Store(true)
		ps.setErr(e.err)
	}
	ps.blocks = blocks
	ps.pinned = e.pinned
	// Steal the enumerator's pins: they now belong to the scan and are
	// released by ParallelScan.Close, not by the resolution pass.
	e.pinned = nil
	e.closed = true
	return ps
}

// setErr records the scan's first error; later ones lose the race.
func (ps *ParallelScan) setErr(err error) {
	if err != nil {
		ps.err.CompareAndSwap(nil, &err)
	}
}

// Err reports why the scan ended early: the cancellation cause after a
// canceled scan, nil otherwise.
func (ps *ParallelScan) Err() error {
	if p := ps.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Next claims the next unscanned block for a worker, or returns false
// when the list is drained (or the scan was stopped or canceled). ws is
// the calling worker's session; it is refreshed between blocks (pass nil
// to skip, e.g. when driving the scan on the pinned coordinator session).
func (ps *ParallelScan) Next(ws *Session) (*Block, bool) {
	if ps.stop.Load() {
		return nil, false
	}
	if ps.done != nil {
		select {
		case <-ps.done:
			ps.setErr(ps.cause())
			ps.stop.Store(true)
			return nil, false
		default:
		}
	}
	i := int(ps.cursor.Add(1)) - 1
	if i >= len(ps.blocks) {
		return nil, false
	}
	if ws != nil && i > 0 {
		ws.Refresh()
	}
	fault.Point(fault.PointScanBlock)
	return ps.blocks[i], true
}

// Stop makes all subsequent Next calls return false, ending the scan
// early across every worker.
func (ps *ParallelScan) Stop() { ps.stop.Store(true) }

// Close releases the scan's group pins and the coordinator's critical
// section. Always call it (defer) once the scan ends.
func (ps *ParallelScan) Close() {
	if ps.closed {
		return
	}
	ps.closed = true
	for _, g := range ps.pinned {
		g.pins.Add(-1)
	}
	ps.pinned = nil
	ps.coord.Exit()
}

// ScanParallelPredCtx is the parallel scan driver: it resolves the
// context once (NewParallelScanPredCtx: pred pushed into the decision
// pass, cctx observed at block-claim granularity) and shards the resolved
// blocks across `workers` goroutines, each with its own pooled Session
// inside its own critical section. fn is invoked once per resolved block;
// returning ErrStopScan stops the scan cleanly, any other error stops it
// and is returned, and a canceled scan returns the context's cause.
//
// A panicking fn unwinds only its worker: the scan stops, every worker
// session exits its critical section and returns to the pool, and the
// panic surfaces as an ErrWorkerPanic-wrapped error. With workers <= 1
// (or a single resolved block) the scan runs inline on the coordinator
// session with zero goroutine overhead, which keeps 1-worker baselines
// honest: with a nil pred, a Background context and a non-panicking fn
// it visits exactly the serial oracle's blocks.
func (c *Context) ScanParallelPredCtx(cctx context.Context, coord *Session, workers int, pred *ScanPredicate, fn func(worker int, ws *Session, b *Block) error) error {
	ps := c.NewParallelScanPredCtx(cctx, coord, pred)
	defer ps.Close()
	if workers > len(ps.blocks) {
		workers = len(ps.blocks)
	}
	if workers <= 1 {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = recoverToError(r)
				}
			}()
			for {
				b, ok := ps.Next(nil)
				if !ok {
					return nil
				}
				if err := fn(0, coord, b); err != nil {
					return err
				}
			}
		}()
		if err != nil && !errors.Is(err, ErrStopScan) {
			return err
		}
		return ps.Err()
	}

	// Worker sessions come from the manager's session pool: a small scan
	// must not pay N epoch-slot registrations per invocation, and the
	// sessions' entry/string caches stay warm across scans.
	sessions := make([]*Session, workers)
	for i := range sessions {
		ws, err := c.mgr.LeaseSession()
		if err != nil {
			for _, s := range sessions[:i] {
				c.mgr.ReturnSession(s)
			}
			return fmt.Errorf("mem: parallel scan worker session: %w", err)
		}
		sessions[i] = ws
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := sessions[w]
			ws.Enter()
			defer ws.Exit()
			// Panic isolation: a kernel panic must not kill the process
			// with the session in a critical section and the scan's pins
			// held. The deferred Exit and the caller's ReturnSession and
			// ps.Close still run, so the unwind is complete.
			defer func() {
				if r := recover(); r != nil {
					ps.Stop()
					errs[w] = recoverToError(r)
				}
			}()
			for {
				b, ok := ps.Next(ws)
				if !ok {
					return
				}
				if err := fn(w, ws, b); err != nil {
					ps.Stop()
					if !errors.Is(err, ErrStopScan) {
						errs[w] = err
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range sessions {
		c.mgr.ReturnSession(s)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ps.Err()
}
