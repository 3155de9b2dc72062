package mem

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// Accessor and helper coverage: the small exported surface that compiled
// query code and the harnesses build on.

func TestBlockAndContextAccessors(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	ref := h.add(t, h.s, 1, "x")
	_ = ref

	if h.ctx.Name() != "test" {
		t.Fatalf("Name = %q", h.ctx.Name())
	}
	if h.ctx.Layout() != RowIndirect {
		t.Fatalf("Layout = %v", h.ctx.Layout())
	}
	if h.ctx.Manager() != h.m {
		t.Fatal("Manager mismatch")
	}
	if !strings.Contains(h.ctx.String(), "test") {
		t.Fatalf("String = %q", h.ctx.String())
	}
	if h.ctx.BlockCapacity() <= 0 {
		t.Fatal("BlockCapacity not positive")
	}

	blocks := h.ctx.SnapshotBlocks()
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	b := blocks[0]
	if b.Context() != h.ctx {
		t.Fatal("block Context mismatch")
	}
	if b.Capacity() <= 0 {
		t.Fatal("Capacity not positive")
	}
	if b.Valid() != 1 || b.Limbo() != 0 {
		t.Fatalf("Valid/Limbo = %d/%d", b.Valid(), b.Limbo())
	}
	if got := h.m.blockByID(b.ID()); got != b {
		t.Fatal("ID does not resolve through the registry")
	}
	if !b.SlotIsValid(0) {
		t.Fatal("slot 0 should be valid")
	}

	if h.m.Epoch() == nil {
		t.Fatal("Epoch nil")
	}
	if h.m.OffheapStats() == nil {
		t.Fatal("OffheapStats nil")
	}
	if h.s.EpochSession() == nil {
		t.Fatal("EpochSession nil")
	}
}

func TestOpenCodedDerefHelpers(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	ref := h.add(t, h.s, 42, "y")
	e := ref.Entry

	if EntryGen(e) != ref.Gen {
		t.Fatal("EntryGen mismatch")
	}
	if EntryIncWord(e) != ref.Inc {
		t.Fatal("EntryIncWord mismatch (clean word expected)")
	}
	p := EntryPayloadRow(e)
	if p == nil {
		t.Fatal("EntryPayloadRow nil")
	}
	if got := *(*int64)(p); got != 42 {
		t.Fatalf("payload object = %d", got)
	}
}

func TestSlotIncWordAndRefFromDirect(t *testing.T) {
	h := newHarness(t, RowDirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	ref := h.add(t, h.s, 7, "z")

	h.s.Enter()
	obj, err := h.ctx.Deref(h.s, ref)
	if err != nil {
		t.Fatal(err)
	}
	if SlotIncWord(obj.Ptr) != ref.Inc {
		t.Fatal("SlotIncWord mismatch")
	}
	addr, inc := DirectWord(ref)
	if addr == 0 {
		t.Fatal("DirectWord null for live ref")
	}
	back := RefFromDirect(h.ctx, addr, inc)
	if back.Entry != ref.Entry || back.Inc != ref.Inc || back.Gen != ref.Gen {
		t.Fatalf("RefFromDirect = %+v, want %+v", back, ref)
	}
	if !RefFromDirect(h.ctx, 0, 0).IsNil() {
		t.Fatal("RefFromDirect(0) should be nil")
	}
	h.s.Exit()
}

// TestColView pins the one addressing rule: for every layout, field and
// slot of a block, the column view's base + i*stride is FieldPtr(i, f),
// row views start past RowDirect's slot header, and values written
// through Alloc read back through the view.
func TestColView(t *testing.T) {
	for _, tc := range []struct {
		layout Layout
		hdr    uintptr
	}{{RowIndirect, 0}, {RowDirect, 8}, {Columnar, 0}} {
		t.Run(tc.layout.String(), func(t *testing.T) {
			h := newHarness(t, tc.layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			for id := int64(0); id < 5; id++ {
				h.add(t, h.s, 100+id, "c")
			}
			blk := h.ctx.SnapshotBlocks()[0]
			for fi := range testSchema.Fields {
				f := &testSchema.Fields[fi]
				base, stride := blk.Col(f)
				if tc.layout == Columnar {
					if want := unsafe.Add(blk.base, blk.colOff[f.Index]); base != want || stride != f.Kind.Size() {
						t.Fatalf("%s: Col = (%p, %d), want (%p, %d)", f.Name, base, stride, want, f.Kind.Size())
					}
				} else if want := unsafe.Add(blk.data, tc.hdr+f.Offset); base != want || stride != uintptr(blk.slotStride) {
					t.Fatalf("%s: Col = (%p, %d), want (%p, %d)", f.Name, base, stride, want, blk.slotStride)
				}
				for i := 0; i < blk.Capacity(); i++ {
					if got, want := unsafe.Add(base, uintptr(i)*stride), blk.FieldPtr(i, f); got != want {
						t.Fatalf("%s slot %d: view %p, FieldPtr %p", f.Name, i, got, want)
					}
				}
			}
			ids, stride := blk.Col(h.idF)
			for i := 0; i < 5; i++ {
				if got := *(*int64)(unsafe.Add(ids, uintptr(i)*stride)); got != 100+int64(i) {
					t.Fatalf("slot %d ID through the view = %d", i, got)
				}
			}
		})
	}
}

func TestCompactionGroupAccessors(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	churnToLowOccupancy(t, h, 4)
	groups := h.m.planGroups()
	if len(groups) == 0 {
		t.Fatal("no groups planned")
	}
	g := groups[0]
	if len(g.Blocks()) < 2 {
		t.Fatalf("group blocks = %d", len(g.Blocks()))
	}
	if g.Target() == nil {
		t.Fatal("group target nil")
	}
	h.m.abortRun(groups)
}

func TestObjFromPtrRoundTrip(t *testing.T) {
	h := newHarness(t, RowDirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	ref := h.add(t, h.s, 11, "w")
	h.s.Enter()
	defer h.s.Exit()
	obj, err := h.ctx.Deref(h.s, ref)
	if err != nil {
		t.Fatal(err)
	}
	ro := objFromPtr(h.ctx, obj.Ptr)
	if ro.Blk == nil || ro.Ptr != obj.Ptr {
		t.Fatalf("objFromPtr = %+v", ro)
	}
	if got := *(*int64)(ro.Field(h.idF)); got != 11 {
		t.Fatalf("object through objFromPtr = %d", got)
	}
	_ = types.Ref{} // keep the types import alongside future cases
}
