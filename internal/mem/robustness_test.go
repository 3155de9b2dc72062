package mem

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// Robustness suites for the cancellation / backpressure / fault-isolation
// layer: context threading through scans and compaction, the memory
// budget's pressure protocol, and panic isolation in worker goroutines.
// The leak assertions lean on the pool counters added for exactly this:
// SessionsLeased == SessionsReturned and zero epoch pins whenever no
// scan is in flight.

// assertScanQuiesced fails the test when a finished (or canceled, or
// faulted) scan leaked a pooled session or an epoch pin.
func assertScanQuiesced(t *testing.T, h *harness) {
	t.Helper()
	st := h.m.Stats()
	if l, r := st.SessionsLeased.Load(), st.SessionsReturned.Load(); l != r {
		t.Fatalf("session pool unbalanced: %d leased, %d returned", l, r)
	}
	if n := h.m.Epoch().InCriticalSessions(); n != 0 {
		t.Fatalf("%d epoch pins leaked", n)
	}
}

// sumIDs runs a cancelable parallel scan summing the ID field, the
// byte-identical-result oracle for the stress suites.
func sumIDs(h *harness, cctx context.Context, workers int) (int64, error) {
	var total atomic.Int64
	err := h.ctx.ScanParallelPredCtx(cctx, h.s, workers, nil, func(_ int, _ *Session, b *Block) error {
		var local int64
		for slot := 0; slot < b.capacity; slot++ {
			if b.SlotIsValid(slot) {
				local += *(*int64)(b.FieldPtr(slot, h.idF))
			}
		}
		total.Add(local)
		return nil
	})
	return total.Load(), err
}

func populateBlocks(t *testing.T, h *harness, blocks int) (n int, want int64) {
	t.Helper()
	n = h.ctx.BlockCapacity()*blocks + 3
	for i := 0; i < n; i++ {
		h.add(t, h.s, int64(i), fmt.Sprintf("s%d", i))
		want += int64(i)
	}
	return n, want
}

// TestScanCancelPreCanceled: a scan under an already-canceled context
// does no block work and reports the cancellation cause.
func TestScanCancelPreCanceled(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	populateBlocks(t, h, 4)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		visited := 0
		err := h.ctx.ScanParallelPredCtx(cctx, h.s, workers, nil, func(_ int, _ *Session, b *Block) error {
			visited++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if visited != 0 {
			t.Fatalf("workers=%d: %d blocks visited under a canceled context", workers, visited)
		}
	}
	assertScanQuiesced(t, h)
}

// TestScanCancelMidScan: cancellation raised from inside a worker kernel
// stops the fan-out within one block's work per worker, the scan returns
// the cause, and nothing leaks.
func TestScanCancelMidScan(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	populateBlocks(t, h, 8)
	for _, workers := range []int{1, 2, 4} {
		cctx, cancel := context.WithCancelCause(context.Background())
		boom := errors.New("operator hit stop")
		var visited atomic.Int64
		err := h.ctx.ScanParallelPredCtx(cctx, h.s, workers, nil, func(_ int, _ *Session, b *Block) error {
			if visited.Add(1) == 2 {
				cancel(boom)
			}
			return nil
		})
		cancel(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want cancellation cause", workers, err)
		}
		// Cancellation is observed at block-claim granularity: after the
		// canceling claim, each in-flight worker may finish at most the
		// block it already holds.
		if v := visited.Load(); v > int64(2+workers) {
			t.Fatalf("workers=%d: %d blocks visited after cancel (bound %d)", workers, v, 2+workers)
		}
		assertScanQuiesced(t, h)
	}
}

// TestSerialEnumeratorCancel: an Enumerator built with a context (as the
// parallel scan's resolution pass builds it) observes the context between
// blocks and surfaces the cause through Err.
func TestSerialEnumeratorCancel(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	populateBlocks(t, h, 4)
	cctx, cancel := context.WithCancel(context.Background())
	h.s.Enter()
	en := h.ctx.newEnumerator(cctx, h.s, nil)
	if _, ok := en.NextBlock(); !ok {
		t.Fatal("first NextBlock failed on a populated context")
	}
	cancel()
	if _, ok := en.NextBlock(); ok {
		t.Fatal("NextBlock returned a block after cancellation")
	}
	if err := en.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	en.Close()
	h.s.Exit()
	if n := h.m.Epoch().InCriticalSessions(); n != 0 {
		t.Fatalf("%d epoch pins leaked", n)
	}
}

// TestScanFaultWorkerPanicIsolated: a panicking kernel must not kill the
// process — the scan unwinds every worker, converts the panic to a typed
// ErrWorkerPanic, and leaves the pool balanced; the same data then scans
// cleanly.
func TestScanFaultWorkerPanicIsolated(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	_, want := populateBlocks(t, h, 4)
	for _, workers := range []int{1, 4} {
		disarm := fault.Enable(map[string]*fault.Rule{
			fault.PointScanBlock: {At: 2, Panic: true},
		})
		_, err := sumIDs(h, context.Background(), workers)
		disarm()
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrWorkerPanic", workers, err)
		}
		assertScanQuiesced(t, h)
		got, err := sumIDs(h, context.Background(), workers)
		if err != nil || got != want {
			t.Fatalf("workers=%d: clean scan after fault = (%d, %v), want (%d, nil)", workers, got, err, want)
		}
	}
}

// TestScanFaultCancelStressLeakFree is the acceptance stress: 1000
// fault-injection + cancellation cycles across worker counts, asserting
// that every surviving (error-free) scan returns the identical sum and
// that the cycle storm leaks no session, arena or epoch pin.
func TestScanFaultCancelStressLeakFree(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	_, want := populateBlocks(t, h, 4)
	const cycles = 1000
	clean := 0
	for i := 0; i < cycles; i++ {
		workers := 1 + i%4
		var disarm func()
		switch i % 3 {
		case 0:
			// Panicking kernel at a varying block.
			disarm = fault.Enable(map[string]*fault.Rule{
				fault.PointScanBlock: {At: int64(1 + i%5), Panic: true},
			})
		case 1:
			// Plain cancellation mid-scan.
			disarm = func() {}
		default:
			// No injection: this cycle must produce the oracle sum.
			disarm = func() {}
		}
		cctx, cancel := context.WithCancel(context.Background())
		if i%3 == 1 {
			cancel()
		}
		got, err := sumIDs(h, cctx, workers)
		cancel()
		disarm()
		if err == nil {
			clean++
			if got != want {
				t.Fatalf("cycle %d: surviving scan sum %d, want %d", i, got, want)
			}
		}
	}
	if clean < cycles/3 {
		t.Fatalf("only %d/%d cycles survived; injection schedule broken", clean, cycles)
	}
	assertScanQuiesced(t, h)
}

// TestBudgetAllocBackpressure: a heap capped below the load's footprint
// must refuse further block allocations with the typed error once
// reclamation cannot help, counting the waits and rejects.
func TestBudgetAllocBackpressure(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:    1 << 13,
		MemoryBudget: 3 << 13, // three blocks: objects + strings + one spare
		HeapBackend:  true,
	})
	var allocErr error
	for i := 0; ; i++ {
		if i > 1<<16 {
			t.Fatal("budget never refused an allocation")
		}
		_, obj, err := h.ctx.Alloc(h.s)
		if err != nil {
			allocErr = err
			break
		}
		*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.idF)) = int64(i)
		h.ctx.Publish(h.s, obj)
	}
	if !errors.Is(allocErr, ErrBudgetExceeded) {
		t.Fatalf("alloc failed with %v, want ErrBudgetExceeded", allocErr)
	}
	b := h.m.Governor()
	c := b.Counters()
	if c.AllocWaits == 0 || c.AllocRejects == 0 {
		t.Fatalf("pressure counters did not advance: %+v", c)
	}
	if c.Used > c.Limit {
		t.Fatalf("ordinary allocations exceeded the limit: used %d > limit %d", c.Used, c.Limit)
	}
	// Raising the limit unblocks allocation immediately.
	b.SetLimit(64 << 13)
	if _, obj, err := h.ctx.Alloc(h.s); err != nil {
		t.Fatalf("alloc after raising the limit: %v", err)
	} else {
		h.ctx.Publish(h.s, obj)
	}
}

// TestBudgetAdmitGate: Admit is free under the limit, honors the
// caller's cancellation and deadline over the budget wait, and fails
// with ErrBudgetExceeded after the bounded deadline-free wait.
func TestBudgetAdmitGate(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	b := h.m.Governor()
	if err := b.Admit(context.Background()); err != nil {
		t.Fatalf("unlimited Admit: %v", err)
	}
	b.SetLimit(1 << 13)
	b.forceReserve(2 << 13) // drive over the limit without real blocks

	// Pre-canceled context: the cause wins without waiting.
	cctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("caller gave up")
	cancel(boom)
	if err := b.Admit(cctx); !errors.Is(err, boom) {
		t.Fatalf("Admit(pre-canceled) = %v, want cause", err)
	}

	// Deadline: ctx expiry bounds the wait.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	start := time.Now()
	if err := b.Admit(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Admit(deadline) = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline Admit took %v", d)
	}

	// No deadline: the budget's own bound produces the typed error.
	if err := b.Admit(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Admit(no deadline, over limit) = %v, want ErrBudgetExceeded", err)
	}

	// A release while a waiter blocks lets the admission through
	// (the gate trips at used >= limit, so drop strictly below it).
	done := make(chan error, 1)
	go func() { done <- b.Admit(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	b.release(2 << 13)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Admit after release = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("released bytes never woke the admission waiter")
	}
	c := b.Counters()
	if c.Admitted < 2 || c.Rejected < 2 {
		t.Fatalf("admission counters did not advance: %+v", c)
	}
}

// TestBudgetCompactionTargetForced: compaction targets are charged with
// forceReserve, so a pass still reclaims when the heap sits exactly at
// its limit — the budget must never starve its own remedy.
func TestBudgetCompactionTargetForced(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	// Clamp the budget to current use: an ordinary allocation would wait
	// and fail, but the pass's target block must go through.
	h.m.Governor().SetLimit(h.m.Governor().Used())
	moved, err := h.m.CompactNowWorkers(2)
	if err != nil {
		t.Fatalf("CompactNowWorkers under a clamped budget: %v", err)
	}
	if moved == 0 {
		t.Fatal("clamped budget starved the compaction pass")
	}
	verifySurvivors(t, h, survivors)
}

// TestBudgetLimitLiftWakesWaiters: removing the limit (SetLimit(0))
// must wake an admission and a block allocation that are already
// waiting, so both succeed at once instead of sleeping out their bound
// and failing with ErrBudgetExceeded.
func TestBudgetLimitLiftWakesWaiters(t *testing.T) {
	t.Run("admit", func(t *testing.T) {
		h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
		g := h.m.Governor()
		g.SetLimit(1 << 13)
		g.forceReserve(2 << 13)
		defer g.release(2 << 13)
		bound := budgetAdmitWait
		done := make(chan error, 1)
		go func() { done <- g.Admit(context.Background()) }()
		time.Sleep(10 * time.Millisecond)
		lifted := time.Now()
		g.SetLimit(0)
		if err := <-done; err != nil {
			t.Fatalf("Admit after the limit was lifted = %v, want nil", err)
		}
		if d := time.Since(lifted); d >= bound {
			t.Fatalf("Admit returned %v after the lift, not inside its %v bound", d, bound)
		}
	})
	t.Run("alloc", func(t *testing.T) {
		h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
		g := h.m.Governor()
		h.add(t, h.s, 0, "x")
		g.SetLimit(g.Used()) // the next block reservation must wait
		n := h.ctx.BlockCapacity()
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				_, obj, err := h.ctx.Alloc(h.s)
				if err != nil {
					done <- err
					return
				}
				h.ctx.Publish(h.s, obj)
			}
			done <- nil
		}()
		deadline := time.Now().Add(2 * time.Second)
		for g.Counters().AllocWaits == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no block allocation waited on the clamped budget")
			}
			time.Sleep(time.Millisecond)
		}
		lifted := time.Now()
		g.SetLimit(0)
		if err := <-done; err != nil {
			t.Fatalf("alloc after the limit was lifted = %v, want nil", err)
		}
		if d := time.Since(lifted); d >= budgetAllocWait {
			t.Fatalf("alloc returned %v after the lift, not inside its %v bound", d, budgetAllocWait)
		}
	})
}

// TestCompactCancelAbortsUnmovedGroups: a pass canceled before its
// moving phase aborts every group cleanly — sources return to
// circulation and a later uncanceled pass compacts them.
func TestCompactCancelAbortsUnmovedGroups(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	moved, err := h.m.compactNowWorkersCtx(cctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pass returned %v, want context.Canceled", err)
	}
	if moved != 0 {
		t.Fatalf("canceled pass moved %d objects before its moving phase", moved)
	}
	verifySurvivors(t, h, survivors)
	moved, err = h.m.CompactNowWorkers(2)
	if err != nil || moved == 0 {
		t.Fatalf("follow-up pass = (%d, %v), want progress", moved, err)
	}
	verifySurvivors(t, h, survivors)
}

// TestCompactFaultGroupPanicScoped: a panic while moving one group is
// scoped to that group — the pass completes its cleanup, surfaces
// ErrWorkerPanic, leaves every object readable, and a repeat pass
// finishes the reclamation.
func TestCompactFaultGroupPanicScoped(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 6)
	disarm := fault.Enable(map[string]*fault.Rule{
		fault.PointCompactGroup: {At: 1, Panic: true},
	})
	_, err := h.m.CompactNowWorkers(2)
	disarm()
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("poisoned pass returned %v, want ErrWorkerPanic", err)
	}
	verifySurvivors(t, h, survivors)
	if _, err := h.m.CompactNowWorkers(2); err != nil {
		t.Fatalf("follow-up pass after fault: %v", err)
	}
	verifySurvivors(t, h, survivors)
	assertScanQuiesced(t, h)
}

// TestFaultAllocBlockError: an injected allocation error surfaces as the
// allocation's failure without wedging the context; disarming restores
// service.
func TestFaultAllocBlockError(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	populateBlocks(t, h, 1) // warm: context has its allocation block
	bang := errors.New("injected alloc failure")
	disarm := fault.Enable(map[string]*fault.Rule{
		fault.PointAllocBlock: {Err: bang},
	})
	// Fill the current allocation block until a fresh one is needed.
	var allocErr error
	for i := 0; i < h.ctx.BlockCapacity()+2; i++ {
		_, obj, err := h.ctx.Alloc(h.s)
		if err != nil {
			allocErr = err
			break
		}
		h.ctx.Publish(h.s, obj)
	}
	disarm()
	if !errors.Is(allocErr, bang) {
		t.Fatalf("alloc under injection = %v, want injected error", allocErr)
	}
	if _, obj, err := h.ctx.Alloc(h.s); err != nil {
		t.Fatalf("alloc after disarm: %v", err)
	} else {
		h.ctx.Publish(h.s, obj)
	}
}

// TestMaintainerLifecycleCancelRestart: a maintainer runs once
// StartMaintainer returns, Stop is idempotent and leaves it stopped, and
// a fresh StartMaintainer takes over.
func TestMaintainerLifecycleCancelRestart(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	if !mt.Running() {
		t.Fatal("maintainer not running after StartMaintainer")
	}
	mt.Stop()
	mt.Stop() // idempotent
	if mt.Running() {
		t.Fatal("maintainer still running after Stop")
	}
	// Restart is a fresh instance.
	mt2 := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	if !mt2.Running() {
		t.Fatal("fresh maintainer not running after restart")
	}
	mt2.Stop()
}

// TestMaintainerFaultPassPanicSurvives: a poisoned maintenance pass is
// recovered and counted; the maintainer keeps scheduling passes after.
func TestMaintainerFaultPassPanicSurvives(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	disarm := fault.Enable(map[string]*fault.Rule{
		fault.PointMaintainerPass: {At: 1, Panic: true},
	})
	defer disarm()
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	defer mt.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for mt.Panics() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected pass panic never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	ticksAfterPanic := mt.Ticks()
	for mt.Ticks() <= ticksAfterPanic+2 {
		if time.Now().After(deadline) {
			t.Fatal("maintainer stopped ticking after a recovered panic")
		}
		time.Sleep(time.Millisecond)
	}
	if !mt.Running() {
		t.Fatal("maintainer dead after a recovered pass panic")
	}
}
