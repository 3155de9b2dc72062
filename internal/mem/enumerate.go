package mem

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/types"
)

// errPredWrongContext is the panic message for a ScanPredicate handed to
// a scan over a context it was not built for. One constant shared by the
// serial and parallel entry points, so tests and fault-injection matching
// see exactly one string.
const errPredWrongContext = "mem: scan predicate built for a different context"

// Enumerator walks a context's blocks in memory order (bag semantics,
// §2/§4). Compiled queries drive it block-by-block and scan each block's
// slot directory themselves; the enumerator's job is the §5.2 protocol:
// consistent interaction with concurrent compaction through group pins,
// so a query sees each object exactly once — either in the group's
// pre-relocation blocks or in its post-relocation target, never both.
//
// The session must be inside a critical section for the whole walk; call
// Refresh between blocks (NextBlock does it) so long enumerations do not
// stall epoch advancement.
type Enumerator struct {
	ctx  *Context
	sess *Session

	blocks []*Block
	i      int

	decisions map[*CompactionGroup]bool // true = pre-state (pinned)
	pinned    []*CompactionGroup
	inSnap    map[*Block]bool
	closed    bool

	// noRefresh pins the session's published epoch for the whole walk
	// instead of refreshing between blocks. The parallel-scan resolution
	// pass uses it: with the coordinator pinned at the snapshot epoch, a
	// compaction planned after the snapshot can never reach its moving
	// phase (its epoch waits cannot complete), so the one-shot block list
	// and group decisions stay authoritative for the scan's lifetime.
	noRefresh bool

	// pred prunes blocks whose synopsis bounds cannot intersect the
	// query's interval constraints (synopsis.go); nil scans everything.
	// The check runs after the §5.2 group decision, so it composes with
	// compaction: pre-state originals are pruned by their own bounds,
	// post-state targets by theirs (complete once the move finished).
	pred *ScanPredicate

	// done, when non-nil, is the walk's cancellation signal: NextBlock
	// polls it once per block (one channel poll, nil for Background-like
	// contexts, so the uncancellable oracle path costs nothing) and ends
	// the walk early, recording the cause in err.
	done  <-chan struct{}
	cause func() error
	err   error
}

// NewEnumerator snapshots the context's block order for the serial,
// unpruned, uncancellable walk: the oracle every parallel and pruned scan
// is checked against. Predicate pushdown and cancellation belong to the
// parallel scan (NewParallelScanPredCtx), whose resolution pass drives
// an Enumerator with both.
func (c *Context) NewEnumerator(s *Session) *Enumerator {
	return c.newEnumerator(context.Background(), s, nil)
}

// newEnumerator builds an enumerator that skips blocks pred prunes (nil
// scans everything) and checks cctx once per block, ending early with Err
// reporting the cause. A Background context costs no per-block poll.
func (c *Context) newEnumerator(cctx context.Context, s *Session, pred *ScanPredicate) *Enumerator {
	if !s.InCritical() {
		panic("mem: NewEnumerator outside critical section")
	}
	if pred != nil && pred.ctx != c {
		panic(errPredWrongContext)
	}
	e := &Enumerator{ctx: c, sess: s, blocks: c.SnapshotBlocks(), pred: pred}
	if cctx != nil {
		if done := cctx.Done(); done != nil {
			e.done = done
			e.cause = func() error { return context.Cause(cctx) }
		}
	}
	return e
}

// NextBlock returns the next block to scan, or false at the end. Between
// blocks it refreshes the session's published epoch.
func (e *Enumerator) NextBlock() (*Block, bool) {
	if e.closed {
		return nil, false
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.err = e.cause()
			return nil, false
		default:
		}
	}
	if !e.noRefresh {
		// Injection point for the robustness suites ("panic at the Nth
		// block"); one atomic load when disarmed. The parallel-scan
		// resolution pass (noRefresh) is exempt so hit counts mean
		// "blocks handed to a kernel".
		fault.Point(fault.PointScanBlock)
	}
	for e.i < len(e.blocks) {
		b := e.blocks[e.i]
		e.i++
		if e.i > 1 && !e.noRefresh {
			// Re-publish our epoch between blocks unless we pinned a
			// group in its pre-state: the pin (not the epoch) is what
			// protects pinned originals, so refreshing stays safe.
			e.sess.Refresh()
		}
		if g := b.group.Load(); g != nil {
			if e.decidePre(g) {
				if !e.pred.admitBlock(b) {
					continue // pinned but empty or pruned: nothing to scan
				}
				return b, true // pre-state: scan the original
			}
			continue // post-state: objects reappear in the target
		}
		if g := b.targetOf.Load(); g != nil {
			if e.decidePre(g) {
				continue // pre-state: originals cover these objects
			}
			if !e.pred.admitBlock(b) {
				continue // empty or pruned target
			}
			return b, true // post-state: scan the target
		}
		// Empty-block fast path and synopsis pruning: a block with no
		// valid slots — or whose min/max bounds cannot intersect the scan
		// predicate — has nothing for the query; skip it before the caller
		// touches its slot directory. Under bag semantics a racing Publish
		// into such a block linearizes after this scan.
		if !e.pred.admitBlock(b) {
			continue
		}
		return b, true
	}
	return nil, false
}

// decidePre chooses, once per group, whether this enumeration observes
// the group's pre-relocation state (pinning it) or its post-relocation
// state (waiting for the move to finish). The pin/state ordering pairs
// with moveGroup: the mover declares gMoving before draining pins, so a
// successful pin taken before the declaration is always honoured.
func (e *Enumerator) decidePre(g *CompactionGroup) bool {
	if d, ok := e.decisions[g]; ok {
		return d
	}
	if e.decisions == nil {
		e.decisions = make(map[*CompactionGroup]bool)
	}
	g.pins.Add(1)
	if g.state.Load() < gMoving {
		e.decisions[g] = true
		e.pinned = append(e.pinned, g)
		return true
	}
	g.pins.Add(-1)
	// The group is moving: help perform its relocation ("the query first
	// helps performing the relocation of the compaction group and then
	// uses the compacted memory block for query processing", §5.2), then
	// observe the post-relocation content. Helping also guarantees
	// progress when the compaction thread is slow: once every scheduled
	// relocation is resolved, the post-state is complete regardless of
	// where the compactor's state machine stands.
	for g.state.Load() == gMoving {
		if e.ctx.mgr.helpGroup(g) {
			break
		}
		runtime.Gosched()
	}
	if g.state.Load() == gAborted {
		// Nothing moved; the originals remain authoritative.
		e.decisions[g] = true
		return true
	}
	e.decisions[g] = false
	// The targets may have been created after our snapshot; make sure we
	// visit each exactly once.
	if e.inSnap == nil {
		e.inSnap = make(map[*Block]bool, len(e.blocks))
		for _, b := range e.blocks {
			e.inSnap[b] = true
		}
	}
	for _, t := range g.targets {
		if !e.inSnap[t] {
			e.blocks = append(e.blocks, t)
			e.inSnap[t] = true
		}
	}
	return false
}

// Err reports why the walk ended early: the context's cancellation cause
// after a canceled walk, nil after a completed one. Callers that passed a
// cancellable context must check it after NextBlock returns false.
func (e *Enumerator) Err() error { return e.err }

// Close releases the enumeration's group pins. Always call it (defer)
// once the walk ends; the compactor times out on leaked pins but records
// an aborted group (§5.2).
func (e *Enumerator) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, g := range e.pinned {
		g.pins.Add(-1)
	}
	e.pinned = nil
}

// MakeRef constructs a reference to the valid object in (blk, slot),
// mirroring the generated enumeration code of §4: the back-pointer
// yields the indirection entry, whose current incarnation the reference
// captures.
func (c *Context) MakeRef(blk *Block, slot int) types.Ref {
	e := blk.backEntry(slot)
	var inc uint32
	if c.layout == RowDirect {
		inc = atomic.LoadUint32(blk.slotHeaderPtr(slot))
	} else {
		inc = loadInc(e)
	}
	return types.Ref{Entry: e, Inc: inc & IncMask, Gen: loadGen(e)}
}

// ForEachValid invokes fn for every valid slot of the context, handling
// enumeration order, critical sections per block and compaction pins.
// fn returning false stops the walk. This is the convenience path; hot
// compiled queries open-code the loop.
func (c *Context) ForEachValid(s *Session, fn func(b *Block, slot int) bool) {
	s.Enter()
	defer s.Exit()
	en := c.NewEnumerator(s)
	defer en.Close()
	for {
		b, ok := en.NextBlock()
		if !ok {
			return
		}
		for slot := 0; slot < b.capacity; slot++ {
			if slotDirState(b.SlotDirWord(slot)) != slotValid {
				continue
			}
			if !fn(b, slot) {
				return
			}
		}
	}
}
