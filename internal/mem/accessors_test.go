package mem

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/schema"
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
	if h.ctx.layout != RowIndirect {
		t.Fatalf("layout = %v", h.ctx.layout)
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

// TestDerefField checks the hop on every target layout: a clean cell
// resolves on the fast path to the object Deref names, a removed target
// and a null cell read as ErrNullReference, and after a compaction that
// moved the targets every cell still resolves. On RowDirect a cell the
// fix-up scan never saw (a copy taken before the move) reaches the object
// through its tombstone, and DerefField writes the new address back.
func TestDerefField(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, ReclaimThreshold: 0.9, HeapBackend: true})
			srcSchema := schema.MustOf[srcObj]()
			src, err := h.m.NewContext("src", srcSchema, RowIndirect)
			if err != nil {
				t.Fatal(err)
			}
			friendF := srcSchema.MustField("Friend")
			h.ctx.RegisterRefEdge(src, friendF.Index)
			survivors := churnToLowOccupancy(t, h, 4)

			// One source object and one loose cell per survivor; the
			// loose cell is invisible to the fix-up scan.
			type link struct {
				want  int64
				ref   types.Ref
				obj   Obj
				loose *[2]uint64
			}
			var links []link
			h.s.Enter()
			for id, r := range survivors {
				_, obj, err := src.Alloc(h.s)
				if err != nil {
					t.Fatal(err)
				}
				h.ctx.StoreRef(obj.Field(friendF), r)
				src.Publish(h.s, obj)
				loose := new([2]uint64)
				h.ctx.StoreRef(unsafe.Pointer(loose), r)
				links = append(links, link{id, r, obj, loose})
			}
			for _, l := range links {
				got, err := h.ctx.DerefField(h.s, l.obj.Field(friendF))
				if err != nil {
					t.Fatalf("fast path for %d: %v", l.want, err)
				}
				want, err := h.ctx.Deref(h.s, l.ref)
				if err != nil {
					t.Fatal(err)
				}
				if got.Ptr != want.Ptr || *(*int64)(got.Field(h.idF)) != l.want {
					t.Fatalf("fast path for %d = %+v, Deref = %+v", l.want, got, want)
				}
			}
			h.s.Exit()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("DerefField outside a critical section did not panic")
					}
				}()
				h.ctx.DerefField(h.s, links[0].obj.Field(friendF))
			}()

			// Slow path: a removed target and a null cell.
			gone := h.add(t, h.s, -1, "gone")
			var goneCell, nullCell [2]uint64
			h.ctx.StoreRef(unsafe.Pointer(&goneCell), gone)
			if err := h.remove(h.s, gone); err != nil {
				t.Fatal(err)
			}
			h.s.Enter()
			for name, cell := range map[string]*[2]uint64{"removed": &goneCell, "null": &nullCell} {
				if _, err := h.ctx.DerefField(h.s, unsafe.Pointer(cell)); err != ErrNullReference {
					t.Fatalf("%s target: err = %v, want ErrNullReference", name, err)
				}
			}
			h.s.Exit()

			moved, err := h.m.CompactNow()
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("no objects moved; test vacuous")
			}
			h.s.Enter()
			defer h.s.Exit()
			written := 0
			for _, l := range links {
				before := *l.loose
				for _, cell := range []unsafe.Pointer{l.obj.Field(friendF), unsafe.Pointer(l.loose)} {
					got, err := h.ctx.DerefField(h.s, cell)
					if err != nil {
						t.Fatalf("after compaction, %d: %v", l.want, err)
					}
					if id := *(*int64)(got.Field(h.idF)); id != l.want {
						t.Fatalf("after compaction, %d resolved to %d", l.want, id)
					}
				}
				if *l.loose != before {
					want, _ := h.ctx.Deref(h.s, l.ref)
					if layout != RowDirect || l.loose[0] != uint64(uintptr(want.Ptr)) {
						t.Fatalf("%v cell for %d rewritten to %#x", layout, l.want, l.loose[0])
					}
					written++
				}
			}
			if layout == RowDirect && written == 0 {
				t.Fatal("no loose direct pointer was written back")
			}
		})
	}
}

// TestStoreRefLoadRefRoundTrip: on every target layout LoadRef returns
// what StoreRef stored — the live reference and null — and a RowDirect
// cell holds the §6 direct word {slot-data address, incarnation}.
func TestStoreRefLoadRefRoundTrip(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			ref := h.add(t, h.s, 7, "z")
			var cell [2]uint64
			p := unsafe.Pointer(&cell)
			h.ctx.StoreRef(p, ref)
			if back := h.ctx.LoadRef(p); back != ref {
				t.Fatalf("LoadRef = %+v, want %+v", back, ref)
			}
			if layout == RowDirect {
				h.s.Enter()
				obj, err := h.ctx.Deref(h.s, ref)
				h.s.Exit()
				if err != nil {
					t.Fatal(err)
				}
				if cell[0] != uint64(uintptr(obj.Ptr)) || uint32(cell[1]) != ref.Inc {
					t.Fatalf("direct word = %#x, want {%p, %d}", cell, obj.Ptr, ref.Inc)
				}
			}
			h.ctx.StoreRef(p, types.Ref{})
			if !h.ctx.LoadRef(p).IsNil() || cell != [2]uint64{} {
				t.Fatalf("null ref stored as %#x", cell)
			}
		})
	}
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

// objFromPtr builds an Obj from a slot-data pointer into c (row layouts
// only).
func objFromPtr(c *Context, p unsafe.Pointer) Obj {
	blk := c.mgr.blockFromAddr(p)
	if blk == nil {
		return Obj{}
	}
	return Obj{Blk: blk, Slot: blk.slotIndexFromData(p), Ptr: p}
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
}
