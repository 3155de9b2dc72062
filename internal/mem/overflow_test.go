package mem

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/types"
)

// The overflow tests build a two-context object graph at the mem level:
// target objects referenced by holder objects through a Ref field, with
// the edge registered the way the collection layer does it.

type ovTarget struct{ ID int64 }

// ovRef is a minimal RefTyped wrapper so schema classifies the holder
// field as Kind Ref targeting ovTarget.
type ovRef struct{ R types.Ref }

// RefTargetType implements types.RefTyped.
func (ovRef) RefTargetType() reflect.Type { return reflect.TypeOf(ovTarget{}) }

type ovHolder struct {
	Ref ovRef
	Pad int64
}

type ovHarness struct {
	m      *Manager
	target *Context
	holder *Context
	s      *Session
	tID    *schema.Field
	hRef   *schema.Field
	direct bool
}

func newOvHarness(t *testing.T, targetLayout Layout) *ovHarness {
	t.Helper()
	m, err := NewManager(Config{BlockSize: 1 << 13, HeapBackend: true})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := m.NewContext("target", schema.MustOf[ovTarget](), targetLayout)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := m.NewContext("holder", schema.MustOf[ovHolder](), RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	tc.RegisterRefEdge(hc, 0)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return &ovHarness{
		m: m, target: tc, holder: hc, s: s,
		tID:    tc.Schema().MustField("ID"),
		hRef:   hc.Schema().MustField("Ref"),
		direct: targetLayout == RowDirect,
	}
}

func (h *ovHarness) addTarget(t *testing.T, id int64) types.Ref {
	t.Helper()
	ref, obj, err := h.target.Alloc(h.s)
	if err != nil {
		t.Fatal(err)
	}
	*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.tID)) = id
	h.target.Publish(h.s, obj)
	return ref
}

// addHolder stores ref into the holder's Ref field using the encoding the
// collection layer would pick for the target layout.
func (h *ovHarness) addHolder(t *testing.T, ref types.Ref) Obj {
	t.Helper()
	_, obj, err := h.holder.Alloc(h.s)
	if err != nil {
		t.Fatal(err)
	}
	h.target.StoreRef(obj.Blk.FieldPtr(obj.Slot, h.hRef), ref)
	h.holder.Publish(h.s, obj)
	return obj
}

// forceLastIncarnation pushes the target object's incarnation to the
// retirement brink and returns the fixed-up reference.
func (h *ovHarness) forceLastIncarnation(t *testing.T, ref types.Ref) types.Ref {
	t.Helper()
	e := entryRef(ref.Entry)
	if h.direct {
		h.s.Enter()
		obj, err := h.target.Deref(h.s, ref)
		if err != nil {
			t.Fatal(err)
		}
		blk := h.m.blockFromAddr(obj.Ptr)
		*blk.slotHeaderPtr(blk.slotIndexFromData(obj.Ptr)) = MaxInc - 1
		h.s.Exit()
	}
	*entryIncPtr(e) = MaxInc - 1
	ref.Inc = MaxInc - 1
	return ref
}

func (h *ovHarness) removeTarget(t *testing.T, ref types.Ref) {
	t.Helper()
	h.s.Enter()
	err := h.target.Remove(h.s, ref)
	h.s.Exit()
	if err != nil {
		t.Fatal(err)
	}
}

// holderRefWord reads back the holder field's first word (entry pointer
// or direct address).
func holderRefWord(h *ovHarness, obj Obj) uint64 {
	return *(*uint64)(obj.Blk.FieldPtr(obj.Slot, h.hRef))
}

func TestRescueNullsIndirectRefsAndRecyclesEntry(t *testing.T) {
	h := newOvHarness(t, RowIndirect)
	ref := h.addTarget(t, 7)
	ref = h.forceLastIncarnation(t, ref)
	holder := h.addHolder(t, ref)
	h.removeTarget(t, ref)

	if n := h.m.RetiredEntries(); n != 1 {
		t.Fatalf("RetiredEntries = %d, want 1", n)
	}
	st, err := h.m.rescueOverflowed()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesRescued != 1 || st.RefsNulled != 1 {
		t.Fatalf("rescue = %+v, want 1 entry, 1 nulled ref", st)
	}
	if w := holderRefWord(h, holder); w != 0 {
		t.Fatalf("in-object ref not nulled: %#x", w)
	}
	// The stale application reference stays null forever.
	h.s.Enter()
	if _, err := h.target.Deref(h.s, ref); err != ErrNullReference {
		t.Fatalf("stale deref = %v", err)
	}
	h.s.Exit()

	// The rescued entry returns to circulation after the recycle grace
	// period, restarting at incarnation 0 with a bumped generation.
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	reused := false
	for i := 0; i < entryBatch*2 && !reused; i++ {
		nr := h.addTarget(t, int64(100+i))
		if nr.Entry == ref.Entry {
			reused = true
			if nr.Inc != 0 {
				t.Fatalf("rescued entry incarnation = %d, want 0", nr.Inc)
			}
			if nr.Gen == ref.Gen {
				t.Fatal("rescued entry generation not bumped")
			}
			h.s.Enter()
			obj, err := h.target.Deref(h.s, nr)
			if err != nil {
				t.Fatalf("deref of reused entry: %v", err)
			}
			if got := *(*int64)(obj.Field(h.tID)); got != int64(100+i) {
				t.Fatalf("reused entry object = %d", got)
			}
			// The retired reference must still be null.
			if _, err := h.target.Deref(h.s, ref); err != ErrNullReference {
				t.Fatalf("stale deref after reuse = %v", err)
			}
			h.s.Exit()
		}
	}
	if !reused {
		t.Fatal("rescued entry never recycled")
	}
}

func TestRescueNullsDirectRefsAndReusesSlot(t *testing.T) {
	h := newOvHarness(t, RowDirect)
	ref := h.addTarget(t, 7)
	ref = h.forceLastIncarnation(t, ref)
	holder := h.addHolder(t, ref)
	if holderRefWord(h, holder) == 0 {
		t.Fatal("direct encoding unexpectedly null before removal")
	}

	// Locate the slot before removing.
	h.s.Enter()
	obj, err := h.target.Deref(h.s, ref)
	if err != nil {
		t.Fatal(err)
	}
	blk := h.m.blockFromAddr(obj.Ptr)
	slot := blk.slotIndexFromData(obj.Ptr)
	h.s.Exit()

	h.removeTarget(t, ref)
	if got := slotDirState(blk.SlotDirWord(slot)); got != slotRetired {
		t.Fatalf("slot state = %d, want retired", got)
	}

	st, err := h.m.rescueOverflowed()
	if err != nil {
		t.Fatal(err)
	}
	if st.SlotsRescued != 1 || st.RefsNulled != 1 {
		t.Fatalf("rescue = %+v, want 1 slot, 1 nulled ref", st)
	}
	if w := holderRefWord(h, holder); w != 0 {
		t.Fatalf("direct pointer not nulled: %#x", w)
	}
	if got := slotDirState(blk.SlotDirWord(slot)); got != slotLimbo {
		t.Fatalf("rescued slot state = %d, want limbo", got)
	}

	// After the grace period the slot serves new objects from a fresh
	// incarnation sequence.
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	refilled := false
	for i := 0; i < blk.capacity; i++ {
		nr := h.addTarget(t, int64(1000+i))
		h.s.Enter()
		nobj, err := h.target.Deref(h.s, nr)
		if err != nil {
			t.Fatal(err)
		}
		nb := h.m.blockFromAddr(nobj.Ptr)
		ns := nb.slotIndexFromData(nobj.Ptr)
		h.s.Exit()
		if nb == blk && ns == slot {
			refilled = true
			if nr.Inc != 0 {
				t.Fatalf("rescued slot incarnation = %d, want 0", nr.Inc)
			}
			break
		}
	}
	if !refilled {
		t.Fatal("rescued slot never reused")
	}
}

func TestRescueNoVictimsIsNoop(t *testing.T) {
	h := newOvHarness(t, RowIndirect)
	h.addTarget(t, 1)
	st, err := h.m.rescueOverflowed()
	if err != nil {
		t.Fatal(err)
	}
	if st != (rescueStats{}) {
		t.Fatalf("no-victim rescue = %+v", st)
	}
	if n := h.m.Stats().OverflowScans.Load(); n != 0 {
		t.Fatalf("no-victim rescue counted a scan: %d", n)
	}
}

func TestRescueTimeoutLeavesVictimsRetired(t *testing.T) {
	h := newOvHarness(t, RowIndirect)
	ref := h.forceLastIncarnation(t, h.addTarget(t, 7))
	h.addHolder(t, ref)
	h.removeTarget(t, ref)

	// A stubborn session blocks the grace period; the rescue must give up
	// and requeue the victims.
	stubborn, err := h.m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	stubborn.Enter()
	done := make(chan rescueStats, 1)
	go func() {
		st, _ := h.m.rescueOverflowed()
		done <- st
	}()
	select {
	case st := <-done:
		if st.EntriesRescued != 0 {
			t.Fatalf("rescue succeeded despite stuck session: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rescue did not return despite stuck session")
	}
	if n := h.m.RetiredEntries(); n != 1 {
		t.Fatalf("victims not requeued: %d", n)
	}
	stubborn.Exit()
	stubborn.Close()

	st, err := h.m.rescueOverflowed()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesRescued != 1 {
		t.Fatalf("retry rescue = %+v", st)
	}
}

// TestMaintainerRescuesOverflow: the Maintainer is the §3.1 background
// thread. With nothing but a running Maintainer, an overflowed indirect
// entry is recycled with its in-object reference nulled, and an
// overflowed direct slot goes back to limbo with its direct pointer
// nulled.
func TestMaintainerRescuesOverflow(t *testing.T) {
	t.Run("RowIndirect", func(t *testing.T) {
		h := newOvHarness(t, RowIndirect)
		mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
		defer mt.Stop()

		ref := h.forceLastIncarnation(t, h.addTarget(t, 7))
		holder := h.addHolder(t, ref)
		h.removeTarget(t, ref)

		deadline := time.Now().Add(10 * time.Second)
		for h.m.RetiredEntries() > 0 || h.m.Stats().EntriesRescued.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("maintainer never rescued the entry")
			}
			time.Sleep(time.Millisecond)
		}
		if w := holderRefWord(h, holder); w != 0 {
			t.Fatalf("in-object ref not nulled by the maintainer: %#x", w)
		}
	})
	t.Run("RowDirect", func(t *testing.T) {
		h := newOvHarness(t, RowDirect)
		mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
		defer mt.Stop()

		ref := h.forceLastIncarnation(t, h.addTarget(t, 7))
		holder := h.addHolder(t, ref)
		h.s.Enter()
		obj, err := h.target.Deref(h.s, ref)
		if err != nil {
			t.Fatal(err)
		}
		blk := h.m.blockFromAddr(obj.Ptr)
		slot := blk.slotIndexFromData(obj.Ptr)
		h.s.Exit()
		h.removeTarget(t, ref)

		deadline := time.Now().Add(10 * time.Second)
		for h.m.Stats().SlotsRescued.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("maintainer never rescued the slot")
			}
			time.Sleep(time.Millisecond)
		}
		if w := holderRefWord(h, holder); w != 0 {
			t.Fatalf("direct pointer not nulled by the maintainer: %#x", w)
		}
		if got := slotDirState(blk.SlotDirWord(slot)); got != slotLimbo {
			t.Fatalf("rescued slot state = %d, want limbo", got)
		}
	})
}

// TestDirectWordValidatesStaleRefs: StoreRef's direct-word write barrier
// encodes a stale reference into a RowDirect target as null.
func TestDirectWordValidatesStaleRefs(t *testing.T) {
	h := newOvHarness(t, RowDirect)
	ref := h.addTarget(t, 7)
	var cell [2]uint64
	h.target.StoreRef(unsafe.Pointer(&cell), ref)
	if cell[0] == 0 {
		t.Fatal("live ref encoded as null")
	}
	h.removeTarget(t, ref)
	h.target.StoreRef(unsafe.Pointer(&cell), ref)
	if cell != [2]uint64{} {
		t.Fatalf("stale ref encoded as %#x, want null", cell)
	}
	cell = [2]uint64{1, 1}
	h.target.StoreRef(unsafe.Pointer(&cell), types.Ref{})
	if cell != [2]uint64{} {
		t.Fatalf("nil ref encoded as %#x", cell)
	}
}
