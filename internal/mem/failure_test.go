package mem

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// Failure-injection tests: force the rare paths of the compaction
// protocol (§5) and the overflow handling (§3.1) that normal workloads
// hit only probabilistically.

// TestForcedBailOutPath drives dereference case (b): a frozen object in
// the waiting phase is bailed out by a reader, the relocation is marked
// failed, and the reader proceeds with the old location.
func TestForcedBailOutPath(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	groups := h.m.planGroups()
	if len(groups) == 0 {
		t.Fatal("no groups planned")
	}
	for _, g := range groups {
		h.m.freezeGroup(g)
		g.state.Store(gFrozen)
	}
	// Simulate the waiting phase: relocation epoch announced, moving
	// phase not yet reached, reader session already at the relocation
	// epoch.
	reloc := h.m.ep.Global() + 1
	h.m.relocEpoch.Store(reloc)
	h.m.movingPhase.Store(false)
	for g := h.m.ep.Global(); g < reloc; g, _ = h.m.ep.TryAdvance() {
	}

	bailsBefore := h.m.Stats().RelocBailouts.Load()
	// Dereference every survivor: frozen ones must bail their relocation
	// out (case b) and still resolve correctly.
	for id, r := range survivors {
		gotID, _, err := h.get(h.s, r)
		if err != nil || gotID != id {
			t.Fatalf("bail-out deref %d: (%d, %v)", id, gotID, err)
		}
	}
	if h.m.Stats().RelocBailouts.Load() == bailsBefore {
		t.Fatal("no bail-outs recorded; waiting-phase path not exercised")
	}
	// Clean up as an aborted run would.
	h.m.abortRun(groups)
	verifySurvivors(t, h, survivors)
}

// TestForcedHelpPath drives dereference case (c): in the moving phase a
// reader helps relocate the object it needs, then proceeds at the new
// location.
func TestForcedHelpPath(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	groups := h.m.planGroups()
	if len(groups) == 0 {
		t.Fatal("no groups planned")
	}
	for _, g := range groups {
		h.m.freezeGroup(g)
		g.state.Store(gMoving) // helpers may move
	}
	reloc := h.m.ep.Global() + 1
	h.m.relocEpoch.Store(reloc)
	h.m.movingPhase.Store(true)
	for g := h.m.ep.Global(); g < reloc; g, _ = h.m.ep.TryAdvance() {
	}

	helpedBefore := h.m.Stats().RelocHelped.Load()
	for id, r := range survivors {
		gotID, _, err := h.get(h.s, r)
		if err != nil || gotID != id {
			t.Fatalf("help deref %d: (%d, %v)", id, gotID, err)
		}
	}
	if h.m.Stats().RelocHelped.Load() == helpedBefore {
		t.Fatal("no helps recorded; moving-phase path not exercised")
	}
	h.m.movingPhase.Store(false)
	h.m.relocEpoch.Store(0)
	// Helpers moved objects into the targets; contents must be intact.
	verifySurvivors(t, h, survivors)
	for _, g := range groups {
		for _, b := range g.blocks {
			b.reloc.Store(nil)
			b.group.Store(nil)
		}
		for _, tb := range g.targets {
			tb.targetOf.Store(nil)
		}
	}
}

// TestOrphanFrozenBitCleared covers the leftover-frozen defense: a frozen
// incarnation with no relocation list must be cleared by the reader
// rather than spinning forever.
func TestOrphanFrozenBitCleared(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	ref := h.add(t, h.s, 7, "x")
	e := entryRef(ref.Entry)
	// Plant an orphan frozen bit (no reloc list anywhere).
	atomic.StoreUint32(entryIncPtr(e), ref.Inc|FlagFrozen)

	done := make(chan error, 1)
	go func() {
		id, _, err := h.get(h.s, ref)
		if err == nil && id != 7 {
			err = ErrNullReference
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("deref with orphan frozen bit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader hung on orphan frozen bit")
	}
	if w := loadInc(e); w&FlagMask != 0 {
		t.Fatalf("orphan frozen bit not cleared: %#x", w)
	}
	// Remove must also get through.
	if err := h.remove(h.s, ref); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionEpochWaitTimeout aborts a run when a session refuses to
// leave an old epoch: the compactor must give up cleanly, leaving all
// data reachable and unflagged.
func TestCompactionEpochWaitTimeout(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)

	// A stubborn session parks inside a critical section and never
	// refreshes: the freezing-epoch wait must time out.
	stubborn, err := h.m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	stubborn.Enter()

	done := make(chan struct{})
	var moved int
	go func() {
		defer close(done)
		moved, _ = h.m.CompactNow()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("CompactNow did not return despite stuck session")
	}
	stubborn.Exit()
	stubborn.Close()

	if moved != 0 {
		t.Fatalf("compaction moved %d objects despite epoch stall", moved)
	}
	verifySurvivors(t, h, survivors)
	for id, r := range survivors {
		if w := loadInc(entryRef(r.Entry)); w&FlagMask != 0 {
			t.Fatalf("survivor %d left flagged: %#x", id, w)
		}
	}
	// A later unobstructed run must succeed.
	if _, err := h.m.CompactNow(); err != nil {
		t.Fatal(err)
	}
	verifySurvivors(t, h, survivors)
}

// TestStringTooLongRejected covers the StrRef length cap.
func TestStringTooLongRejected(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 14, HeapBackend: true})
	big := make([]byte, types.MaxStringLen+1)
	if _, err := h.ctx.AllocString(h.s, string(big)); err == nil {
		t.Fatal("oversized string accepted")
	}
	// At the cap is fine.
	ok := make([]byte, types.MaxStringLen)
	sr, err := h.ctx.AllocString(h.s, string(ok))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Len() != types.MaxStringLen {
		t.Fatalf("len = %d", sr.Len())
	}
	h.ctx.strings.freeStr(sr)
}

// TestBigStringDedicatedRegion covers the oversized-string path (past the
// largest size class) including its release.
func TestBigStringDedicatedRegion(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 14, HeapBackend: true})
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	ref := h.add(t, h.s, 1, string(payload))
	_, got, err := h.get(h.s, ref)
	if err != nil || got != string(payload) {
		t.Fatalf("big string round-trip failed: %v", err)
	}
	if err := h.remove(h.s, ref); err != nil {
		t.Fatal(err)
	}
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	// The dedicated region is released when the slot is *reclaimed*, not
	// when it is freed (§3.5 reclaims lazily inside the allocation scan).
	// Fill the block so the allocation cursor wraps onto the ripe limbo
	// slot.
	capacity := h.ctx.SnapshotBlocks()[0].Capacity()
	for i := 0; i < capacity; i++ {
		h.add(t, h.s, int64(i+2), "small")
	}
	if live := h.ctx.strings.liveBytes.Load(); live >= 10_000 {
		t.Fatalf("big string not released: %d live bytes", live)
	}
}

// TestMovedFromSlotsNeverReused drives a group that moved objects and
// then aborted — a helper moved them before the compactor's pin wait
// timed out — so its source blocks return to circulation holding
// moved-from slots. No such slot may host a new object: the moved copy
// shares the slot's string storage, and in direct mode the slot header
// is a forwarding tombstone that still carries the moved object's
// incarnation (a new object there would be unremovable and would alias
// the old object's direct pointers).
func TestMovedFromSlotsNeverReused(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			survivors := churnToLowOccupancy(t, h, 4)
			groups := h.m.planGroups()
			if len(groups) == 0 {
				t.Fatal("no groups planned")
			}
			for _, g := range groups {
				h.m.freezeGroup(g)
				g.state.Store(gFrozen)
			}
			type movedFrom struct {
				blk  *Block
				slot int
			}
			var from []movedFrom
			for _, g := range groups {
				b := g.blocks[0]
				re := &b.reloc.Load().entries[0]
				if !h.m.moveOne(g.ctx, b, re) {
					t.Fatal("helper move did not happen")
				}
				from = append(from, movedFrom{b, int(re.slot)})
			}
			h.m.abortRun(groups)

			// Ripen every limbo slot, offer the sources for reuse, and
			// allocate more than they could hold.
			for i := 0; i < 3; i++ {
				h.m.TryAdvanceEpoch()
			}
			for _, f := range from {
				h.ctx.enqueueReclaim(f.blk)
			}
			for i := 0; i < 3; i++ {
				h.m.TryAdvanceEpoch()
			}
			var fresh []types.Ref
			for i := 0; i < 4*h.ctx.BlockCapacity(); i++ {
				fresh = append(fresh, h.add(t, h.s, int64(-1-i), fmt.Sprintf("fresh%d", i)))
			}
			for _, f := range from {
				if slotDirState(f.blk.SlotDirWord(f.slot)) == slotValid {
					t.Fatalf("moved-from slot %d of block %d hosts a new object", f.slot, f.blk.ID())
				}
			}
			done := make(chan error, 1)
			go func() {
				for _, r := range fresh {
					if err := h.remove(h.s, r); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Remove of a new object did not return")
			}
			verifySurvivors(t, h, survivors)

			// The next pass empties the sealed sources and buries them.
			if _, err := h.m.CompactNow(); err != nil {
				t.Fatal(err)
			}
			for _, f := range from {
				if !f.blk.sealed.Load() || !f.blk.buried.Load() {
					t.Fatalf("block %d: sealed=%v buried=%v after the next pass", f.blk.ID(), f.blk.sealed.Load(), f.blk.buried.Load())
				}
			}
			verifySurvivors(t, h, survivors)
		})
	}
}
