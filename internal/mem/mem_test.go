package mem

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

type testObj struct {
	ID   int64
	Name string
}

var testSchema = schema.MustOf[testObj]()

type harness struct {
	m   *Manager
	ctx *Context
	s   *Session

	idF, nameF *schema.Field
}

func newHarness(t *testing.T, layout Layout, cfg Config) *harness {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := m.NewContext("test", testSchema, layout)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return &harness{
		m: m, ctx: ctx, s: s,
		idF:   testSchema.MustField("ID"),
		nameF: testSchema.MustField("Name"),
	}
}

func (h *harness) add(t *testing.T, s *Session, id int64, name string) types.Ref {
	t.Helper()
	ref, obj, err := h.ctx.Alloc(s)
	if err != nil {
		t.Fatal(err)
	}
	*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.idF)) = id
	sr, err := h.ctx.AllocString(s, name)
	if err != nil {
		t.Fatal(err)
	}
	*(*types.StrRef)(obj.Blk.FieldPtr(obj.Slot, h.nameF)) = sr
	h.ctx.Publish(s, obj)
	return ref
}

func (h *harness) get(s *Session, ref types.Ref) (int64, string, error) {
	s.Enter()
	defer s.Exit()
	obj, err := h.ctx.Deref(s, ref)
	if err != nil {
		return 0, "", err
	}
	id := *(*int64)(obj.Field(h.idF))
	name := (*(*types.StrRef)(obj.Field(h.nameF))).String()
	return id, name, nil
}

func (h *harness) remove(s *Session, ref types.Ref) error {
	s.Enter()
	defer s.Exit()
	return h.ctx.Remove(s, ref)
}

func (h *harness) count() int { return h.ctx.Len() }

func allLayouts() []Layout { return []Layout{RowIndirect, RowDirect, Columnar} }

func TestManagerConfigValidation(t *testing.T) {
	bad := []Config{
		{BlockSize: 1000},         // not a power of two
		{BlockSize: 2048},         // too small
		{ReclaimThreshold: 1.5},   // out of range
		{CompactionThreshold: -1}, // out of range
		{BlockSize: 1 << 14, ReclaimThreshold: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockSize() != 1<<18 {
		t.Errorf("default block size = %d", m.BlockSize())
	}
	m.Close()
	if err := m.Close(); err == nil {
		t.Error("double Close should fail")
	}
}

func TestAddGetRoundTrip(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 14, HeapBackend: true})
			refs := make([]types.Ref, 0, 500)
			for i := 0; i < 500; i++ {
				refs = append(refs, h.add(t, h.s, int64(i), fmt.Sprintf("name-%d", i)))
			}
			if h.count() != 500 {
				t.Fatalf("Len = %d, want 500", h.count())
			}
			for i, r := range refs {
				id, name, err := h.get(h.s, r)
				if err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
				if id != int64(i) || name != fmt.Sprintf("name-%d", i) {
					t.Fatalf("get %d = (%d,%q)", i, id, name)
				}
			}
		})
	}
}

func TestRemoveNullsReferences(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 14, HeapBackend: true})
			r1 := h.add(t, h.s, 1, "adam")
			r2 := h.add(t, h.s, 2, "eve")
			if err := h.remove(h.s, r1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.get(h.s, r1); err != ErrNullReference {
				t.Fatalf("deref removed = %v, want ErrNullReference", err)
			}
			if err := h.remove(h.s, r1); err != ErrNullReference {
				t.Fatalf("double remove = %v, want ErrNullReference", err)
			}
			if id, _, err := h.get(h.s, r2); err != nil || id != 2 {
				t.Fatalf("unrelated object affected: (%d, %v)", id, err)
			}
			if h.count() != 1 {
				t.Fatalf("Len = %d, want 1", h.count())
			}
			// Nil and zero refs behave as null.
			if err := h.remove(h.s, types.Ref{}); err != ErrNullReference {
				t.Fatalf("remove nil ref = %v", err)
			}
		})
	}
}

func TestDerefOutsideCriticalPanics(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 14, HeapBackend: true})
	ref := h.add(t, h.s, 1, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = h.ctx.Deref(h.s, ref)
}

// TestSlotReuseNeedsTwoEpochs verifies the §3.4 reclamation rule: a limbo
// slot freed in epoch e is not reused before epoch e+2.
func TestSlotReuseNeedsTwoEpochs(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.01,
		HeapBackend:      true,
	})
	cap := h.ctx.BlockCapacity()
	refs := make([]types.Ref, 0, cap)
	for i := 0; i < cap; i++ {
		refs = append(refs, h.add(t, h.s, int64(i), ""))
	}
	if h.ctx.Blocks() != 1 {
		t.Fatalf("expected one block, got %d", h.ctx.Blocks())
	}
	// Remove everything: block crosses the reclaim threshold on abandon.
	for _, r := range refs {
		if err := h.remove(h.s, r); err != nil {
			t.Fatal(err)
		}
	}
	reclaimedBefore := h.m.Stats().SlotsReclaimed.Load()
	// Allocate again immediately: epochs have not advanced twice, so the
	// allocator must take a fresh block rather than touch limbo slots.
	h.add(t, h.s, 999, "")
	if h.m.Stats().SlotsReclaimed.Load() != reclaimedBefore {
		t.Fatal("limbo slot reclaimed before two epochs passed")
	}
	// Let epochs advance (no sessions in critical sections).
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	for i := 0; i < cap; i++ {
		h.add(t, h.s, int64(1000+i), "")
	}
	if got := h.m.Stats().SlotsReclaimed.Load(); got == reclaimedBefore {
		t.Fatal("limbo slots never reclaimed after epochs advanced")
	}
}

func TestStringStorageReclaimedWithSlot(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.01,
				HeapBackend:      true,
			})
			var refs []types.Ref
			for i := 0; i < 200; i++ {
				refs = append(refs, h.add(t, h.s, int64(i), fmt.Sprintf("some-longer-string-%06d", i)))
			}
			live := h.ctx.strings.liveBytes.Load()
			if live == 0 {
				t.Fatal("no live string bytes accounted")
			}
			for _, r := range refs {
				if err := h.remove(h.s, r); err != nil {
					t.Fatal(err)
				}
			}
			// Strings are freed at slot *reclamation*, not removal.
			if h.ctx.strings.liveBytes.Load() != live {
				t.Fatal("strings freed before grace period")
			}
			h.m.TryAdvanceEpoch()
			h.m.TryAdvanceEpoch()
			for i := 0; i < 200; i++ {
				h.add(t, h.s, int64(i), "short")
			}
			if after := h.ctx.strings.liveBytes.Load(); after >= live {
				t.Fatalf("string bytes not reclaimed: before=%d after=%d", live, after)
			}
		})
	}
}

func TestEnumerationSeesAllValid(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			const n = 1000
			refs := make([]types.Ref, 0, n)
			for i := 0; i < n; i++ {
				refs = append(refs, h.add(t, h.s, int64(i), ""))
			}
			// Remove every third object.
			removed := 0
			for i := 0; i < n; i += 3 {
				if err := h.remove(h.s, refs[i]); err != nil {
					t.Fatal(err)
				}
				removed++
			}
			sum := int64(0)
			cnt := 0
			h.ctx.ForEachValid(h.s, func(b *Block, slot int) bool {
				sum += *(*int64)(b.FieldPtr(slot, h.idF))
				cnt++
				return true
			})
			wantCnt := n - removed
			if cnt != wantCnt {
				t.Fatalf("enumerated %d, want %d", cnt, wantCnt)
			}
			var wantSum int64
			for i := 0; i < n; i++ {
				if i%3 != 0 {
					wantSum += int64(i)
				}
			}
			if sum != wantSum {
				t.Fatalf("sum = %d, want %d", sum, wantSum)
			}
		})
	}
}

func TestMakeRefFromEnumeration(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			want := map[int64]bool{}
			for i := 0; i < 100; i++ {
				h.add(t, h.s, int64(i), "")
				want[int64(i)] = true
			}
			var refs []types.Ref
			h.ctx.ForEachValid(h.s, func(b *Block, slot int) bool {
				refs = append(refs, h.ctx.MakeRef(b, slot))
				return true
			})
			if len(refs) != 100 {
				t.Fatalf("made %d refs", len(refs))
			}
			got := map[int64]bool{}
			for _, r := range refs {
				id, _, err := h.get(h.s, r)
				if err != nil {
					t.Fatal(err)
				}
				got[id] = true
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("missing id %d", id)
				}
			}
		})
	}
}

// TestIncarnationProtectsReuse checks the §3.1 guarantee: after a slot is
// reused for a new object, references to the old incarnation observe
// null, never the new object.
func TestIncarnationProtectsReuse(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.01,
				HeapBackend:      true,
			})
			old := make([]types.Ref, 0, 50)
			for i := 0; i < 50; i++ {
				old = append(old, h.add(t, h.s, int64(i), "old"))
			}
			for _, r := range old {
				if err := h.remove(h.s, r); err != nil {
					t.Fatal(err)
				}
			}
			h.m.TryAdvanceEpoch()
			h.m.TryAdvanceEpoch()
			// Refill; most allocations should land in reclaimed slots.
			for i := 0; i < 50; i++ {
				h.add(t, h.s, int64(1000+i), "new")
			}
			for _, r := range old {
				if _, _, err := h.get(h.s, r); err != ErrNullReference {
					t.Fatalf("stale ref returned %v, want null", err)
				}
			}
		})
	}
}

func TestBlocksComeFromReclamationQueue(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.05,
		HeapBackend:      true,
	})
	cap := h.ctx.BlockCapacity()
	// Fill three blocks.
	var refs []types.Ref
	for i := 0; i < cap*3; i++ {
		refs = append(refs, h.add(t, h.s, int64(i), ""))
	}
	blocksBefore := h.ctx.Blocks()
	// Free the first block's worth entirely.
	for i := 0; i < cap; i++ {
		if err := h.remove(h.s, refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	// Refill: the allocator should reuse limbo slots in queued blocks
	// instead of growing the context.
	for i := 0; i < cap; i++ {
		h.add(t, h.s, int64(10000+i), "")
	}
	if got := h.ctx.Blocks(); got > blocksBefore+1 {
		t.Fatalf("blocks grew from %d to %d despite reclaimable space", blocksBefore, got)
	}
	if h.m.Stats().SlotsReclaimed.Load() == 0 {
		t.Fatal("no slots reclaimed")
	}
}

func TestMemoryBytesAccounting(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	if h.ctx.MemoryBytes() != 0 {
		t.Fatalf("fresh context reports %d bytes", h.ctx.MemoryBytes())
	}
	for i := 0; i < 100; i++ {
		h.add(t, h.s, int64(i), "hello world padding padding")
	}
	if h.ctx.MemoryBytes() < 1<<13 {
		t.Fatalf("MemoryBytes = %d, want at least one block", h.ctx.MemoryBytes())
	}
}

func TestSessionExhaustionAndReuse(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 14, HeapBackend: true})
	s2, err := h.m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	h.add(t, s2, 7, "via-s2")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.count() != 1 {
		t.Fatalf("Len = %d", h.count())
	}
}

// TestConcurrentAddRemoveEnumerate is the core bag-semantics stress test:
// concurrent adders, removers and enumerators must never observe torn
// objects or wrong-object dereferences.
func TestConcurrentAddRemoveEnumerate(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.05,
				HeapBackend:      true,
			})
			const perWorker = 600
			const workers = 3
			var wg sync.WaitGroup
			errs := make(chan error, workers*2)

			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := h.m.NewSession()
					if err != nil {
						errs <- err
						return
					}
					defer s.Close()
					var mine []types.Ref
					for i := 0; i < perWorker; i++ {
						id := int64(w*1_000_000 + i)
						mine = append(mine, h.add(t, s, id, "w"))
						if i%2 == 1 {
							s.Enter()
							if err := h.ctx.Remove(s, mine[len(mine)-2]); err != nil {
								errs <- fmt.Errorf("remove: %w", err)
								s.Exit()
								return
							}
							s.Exit()
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := h.m.NewSession()
				if err != nil {
					errs <- err
					return
				}
				defer s.Close()
				for round := 0; round < 20; round++ {
					h.ctx.ForEachValid(s, func(b *Block, slot int) bool {
						id := *(*int64)(b.FieldPtr(slot, h.idF))
						if id < 0 || id >= workers*1_000_000+perWorker {
							errs <- fmt.Errorf("torn/garbage id %d", id)
							return false
						}
						return true
					})
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			// Each worker keeps half its objects (odd i removes the even
			// predecessor), so expect workers*perWorker/2 survivors.
			if got, want := h.count(), workers*perWorker/2; got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
		})
	}
}

// TestEntryRetireOnIncOverflow forces an indirection entry to MaxInc and
// checks the allocator retires it rather than recycling (§3.1 overflow).
func TestEntryRetireOnIncOverflow(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.01,
		HeapBackend:      true,
	})
	ref := h.add(t, h.s, 1, "")
	// Force the entry's incarnation to the retirement point.
	e := entryRef(ref.Entry)
	*entryIncPtr(e) = MaxInc - 1
	ref.Inc = MaxInc - 1
	if err := h.remove(h.s, ref); err != nil {
		t.Fatal(err)
	}
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	// The retired entry must not be handed to a new object.
	for i := 0; i < 10; i++ {
		nr := h.add(t, h.s, int64(100+i), "")
		if nr.Entry == ref.Entry {
			t.Fatal("retired entry was recycled")
		}
	}
	if _, _, err := h.get(h.s, ref); err != ErrNullReference {
		t.Fatalf("retired ref deref = %v", err)
	}
}

// TestSlotRetireDirectMode forces a slot-header incarnation to the
// retirement point in direct mode; the slot must leave circulation.
func TestSlotRetireDirectMode(t *testing.T) {
	h := newHarness(t, RowDirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.01,
		HeapBackend:      true,
	})
	ref := h.add(t, h.s, 1, "")
	h.s.Enter()
	obj, err := h.ctx.Deref(h.s, ref)
	if err != nil {
		t.Fatal(err)
	}
	robj := objFromPtr(h.ctx, obj.Ptr)
	blk, slot := robj.Blk, robj.Slot
	*blk.slotHeaderPtr(slot) = MaxInc - 1
	// Keep the entry's incarnation mirror in sync, as Remove would.
	*entryIncPtr(entryRef(ref.Entry)) = MaxInc - 1
	h.s.Exit()
	ref.Inc = MaxInc - 1
	if err := h.remove(h.s, ref); err != nil {
		t.Fatal(err)
	}
	if got := slotDirState(blk.SlotDirWord(slot)); got != slotRetired {
		t.Fatalf("slot state = %d, want retired", got)
	}
	h.m.TryAdvanceEpoch()
	h.m.TryAdvanceEpoch()
	// Refill the block; the retired slot must stay out of circulation.
	for i := 0; i < blk.capacity; i++ {
		h.add(t, h.s, int64(i), "")
	}
	if got := slotDirState(blk.SlotDirWord(slot)); got != slotRetired {
		t.Fatalf("retired slot reused (state %d)", got)
	}
}

func TestGeometryFitsBlock(t *testing.T) {
	for _, layout := range allLayouts() {
		for _, bs := range []int{1 << 12, 1 << 14, 1 << 18} {
			g, err := computeGeometry(bs, testSchema, layout)
			if err != nil {
				t.Fatalf("%v/%d: %v", layout, bs, err)
			}
			if g.capacity <= 0 {
				t.Fatalf("%v/%d: capacity %d", layout, bs, g.capacity)
			}
			end := int(g.backOff) + g.capacity*8
			if end > bs {
				t.Fatalf("%v/%d: layout end %d exceeds block size", layout, bs, end)
			}
		}
	}
}
