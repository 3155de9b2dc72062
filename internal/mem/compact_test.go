package mem

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/types"
)

type reflectType = reflect.Type

func reflectTypeOf(v any) reflect.Type { return reflect.TypeOf(v) }

// churnToLowOccupancy fills several blocks and then removes most objects,
// leaving every block under the compaction threshold. Returns surviving
// refs keyed by their ID.
func churnToLowOccupancy(t *testing.T, h *harness, blocks int) map[int64]types.Ref {
	t.Helper()
	cap := h.ctx.BlockCapacity()
	n := cap * blocks
	refs := make([]types.Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, h.add(t, h.s, int64(i), fmt.Sprintf("s%d", i)))
	}
	// Abandon the allocation block so it becomes a compaction candidate.
	h.s.allocBlocks[h.ctx.id] = nil
	for _, b := range h.ctx.SnapshotBlocks() {
		b.allocOwned.Store(false)
	}
	survivors := make(map[int64]types.Ref)
	for i, r := range refs {
		if i%10 == 0 { // keep 10%
			survivors[int64(i)] = r
			continue
		}
		if err := h.remove(h.s, r); err != nil {
			t.Fatal(err)
		}
	}
	return survivors
}

func verifySurvivors(t *testing.T, h *harness, survivors map[int64]types.Ref) {
	t.Helper()
	for id, r := range survivors {
		got, name, err := h.get(h.s, r)
		if err != nil {
			t.Fatalf("survivor %d: %v", id, err)
		}
		if got != id || name != fmt.Sprintf("s%d", id) {
			t.Fatalf("survivor %d read back (%d,%q)", id, got, name)
		}
	}
	// Enumeration agrees.
	seen := map[int64]bool{}
	h.ctx.ForEachValid(h.s, func(b *Block, slot int) bool {
		seen[*(*int64)(b.FieldPtr(slot, h.idF))] = true
		return true
	})
	if len(seen) != len(survivors) {
		t.Fatalf("enumerated %d objects, want %d", len(seen), len(survivors))
	}
	for id := range survivors {
		if !seen[id] {
			t.Fatalf("enumeration missing %d", id)
		}
	}
}

func TestCompactionEmptiesSparseBlocks(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.9, // keep reclamation out of the way
				HeapBackend:      true,
			})
			survivors := churnToLowOccupancy(t, h, 6)
			before := h.ctx.Blocks()
			moved, err := h.m.CompactNow()
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("compaction moved nothing")
			}
			if after := h.ctx.Blocks(); after >= before {
				t.Fatalf("blocks %d -> %d; compaction did not shrink", before, after)
			}
			verifySurvivors(t, h, survivors)
			if h.m.Stats().Compactions.Load() != 1 {
				t.Fatal("compaction not counted")
			}
			// Graveyard blocks are released once epochs pass.
			h.m.TryAdvanceEpoch()
			h.m.TryAdvanceEpoch()
			h.m.TryAdvanceEpoch()
			h.m.drainGraveyard()
			if rel := h.m.Stats().BlocksReleased.Load(); rel == 0 {
				t.Fatal("no block memory released after grace period")
			}
		})
	}
}

// TestParallelCompactionMatchesSerialOracle: a parallel moving phase
// must produce the same surviving-object set, valid references and
// shrunken block list as the serial pass at every worker count. The
// churn is deterministic, so the workers=1 pass (the oracle, exactly
// the old serial loop) and every parallel pass must agree with the
// survivors map, and with each other, exactly.
func TestParallelCompactionMatchesSerialOracle(t *testing.T) {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		sweep = append(sweep, n)
	}
	for _, layout := range allLayouts() {
		for _, workers := range sweep {
			t.Run(fmt.Sprintf("%s/workers=%d", layout, workers), func(t *testing.T) {
				h := newHarness(t, layout, Config{
					BlockSize:        1 << 13,
					ReclaimThreshold: 0.9,
					HeapBackend:      true,
				})
				survivors := churnToLowOccupancy(t, h, 6)
				before := h.ctx.Blocks()
				st := h.m.Stats()
				groupsBefore := st.GroupsMoved.Load()
				bytesBefore := st.BytesReclaimed.Load()
				moved, err := h.m.compactNowWorkers(workers)
				if err != nil {
					t.Fatal(err)
				}
				if moved == 0 {
					t.Fatal("compaction moved nothing")
				}
				if after := h.ctx.Blocks(); after >= before {
					t.Fatalf("blocks %d -> %d; compaction did not shrink", before, after)
				}
				// Same surviving-object set, every reference valid, and the
				// enumeration agrees — the oracle property.
				verifySurvivors(t, h, survivors)
				if st.GroupsMoved.Load() == groupsBefore {
					t.Fatal("GroupsMoved did not advance")
				}
				if st.BytesReclaimed.Load() == bytesBefore {
					t.Fatal("BytesReclaimed did not advance")
				}
				if st.CompactNanos.Load() == 0 {
					t.Fatal("CompactNanos not recorded")
				}
			})
		}
	}
}

func TestCompactionRemovedObjectsStayNull(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	cap := h.ctx.BlockCapacity()
	var live, dead []types.Ref
	for i := 0; i < cap*4; i++ {
		r := h.add(t, h.s, int64(i), "")
		if i%8 == 0 {
			live = append(live, r)
		} else {
			dead = append(dead, r)
		}
	}
	h.s.allocBlocks[h.ctx.id] = nil
	for _, b := range h.ctx.SnapshotBlocks() {
		b.allocOwned.Store(false)
	}
	for _, r := range dead {
		if err := h.remove(h.s, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.m.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for _, r := range dead {
		if _, _, err := h.get(h.s, r); err != ErrNullReference {
			t.Fatalf("dead ref after compaction: %v", err)
		}
	}
	for _, r := range live {
		if _, _, err := h.get(h.s, r); err != nil {
			t.Fatalf("live ref after compaction: %v", err)
		}
	}
}

func TestCompactionNothingToDo(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	for i := 0; i < 100; i++ {
		h.add(t, h.s, int64(i), "")
	}
	moved, err := h.m.CompactNow()
	if err != nil || moved != 0 {
		t.Fatalf("CompactNow on dense context = (%d, %v)", moved, err)
	}
	if f := h.m.FragmentationSnapshot(); f.Fragmented != 0 {
		t.Fatalf("dense context has %d compaction candidates", f.Fragmented)
	}
}

// TestCompactionPinAbort drives moveGroup against a pinned group: it must
// abort, unfreeze everything and leave the data intact (§5.2 bail-out).
func TestCompactionPinAbort(t *testing.T) {
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
	g := groups[0]
	h.m.freezeGroup(g)
	g.state.Store(gFrozen)
	g.pins.Add(1) // a query holds the group's read pin

	moved, ok := h.m.moveGroup(g)
	if ok || moved != 0 {
		t.Fatalf("pinned group moved: (%d,%v)", moved, ok)
	}
	if g.state.Load() != gAborted {
		t.Fatalf("group state = %d, want aborted", g.state.Load())
	}
	g.pins.Add(-1)
	// Clean up the remaining planned groups as an aborted run would.
	h.m.abortRun(groups)
	// No frozen bits may remain; every survivor dereferences cleanly.
	verifySurvivors(t, h, survivors)
	for id, r := range survivors {
		w := loadInc(entryRef(r.Entry))
		if w&FlagMask != 0 {
			t.Fatalf("survivor %d left with flags %#x", id, w)
		}
	}
}

// TestCompactionWithConcurrentChurn is the §5 stress test: concurrent
// adders/removers/enumerators run against repeated compactions. At the
// end every surviving reference must resolve to its exact object and the
// enumeration count must match.
func TestCompactionWithConcurrentChurn(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.10,
				HeapBackend:      true,
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var fail atomic.Value

			const workers = 2
			type owned struct {
				id  int64
				ref types.Ref
			}
			survivors := make([][]owned, workers)

			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := h.m.NewSession()
					if err != nil {
						fail.Store(err.Error())
						return
					}
					defer s.Close()
					var mine []owned
					i := 0
					for {
						select {
						case <-stop:
							survivors[w] = mine
							return
						default:
						}
						id := int64(w)<<40 | int64(i)
						ref, obj, err := h.ctx.Alloc(s)
						if err != nil {
							fail.Store(err.Error())
							return
						}
						*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.idF)) = id
						h.ctx.Publish(s, obj)
						mine = append(mine, owned{id, ref})
						// Remove ~80% shortly after insertion to create
						// sparse blocks for the compactor.
						if len(mine) > 5 && i%5 != 0 {
							victim := mine[len(mine)-2]
							s.Enter()
							err := h.ctx.Remove(s, victim.ref)
							s.Exit()
							if err != nil {
								e := entryRef(victim.ref.Entry)
								diag := ""
								payload := loadPayload(e)
								if h.ctx.layout == Columnar {
									id, sl := unpackColumnar(payload)
									b := h.m.blockByID(id)
									diag = fmt.Sprintf("blk(%d)=%v slot=%d", id, b != nil, sl)
									if b != nil {
										diag += fmt.Sprintf(" slotdir=%#x cellInc=%#x", b.SlotDirWord(sl), loadInc(e))
									}
								} else {
									b := h.m.blockFromAddr(payloadAddr(payload))
									diag = fmt.Sprintf("blk=%v", b != nil)
									if b != nil {
										sl := b.slotIndexFromData(payloadAddr(payload))
										w := uint32(0)
										if h.ctx.layout == RowDirect {
											w = *b.slotHeaderPtr(sl)
										}
										diag += fmt.Sprintf(" slot=%d slotdir=%#x hdr=%#x grp=%v tgt=%v", sl, b.SlotDirWord(sl), w, b.group.Load() != nil, b.targetOf.Load() != nil)
									}
								}
								fail.Store(fmt.Sprintf(
									"remove id=%#x: %v [refInc=%d refGen=%d entryInc=%#x entryGen=%d payload=%#x %s]",
									victim.id, err, victim.ref.Inc, victim.ref.Gen,
									loadInc(e), loadGen(e), payload, diag))
								return
							}
							mine = append(mine[:len(mine)-2], mine[len(mine)-1])
						}
						i++
					}
				}(w)
			}

			// Enumerator goroutine: every object it sees must have a
			// plausible ID (no torn reads, no duplicates within a pass
			// beyond bag-semantics tolerance for in-flight moves).
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := h.m.NewSession()
				if err != nil {
					fail.Store(err.Error())
					return
				}
				defer s.Close()
				for {
					select {
					case <-stop:
						return
					default:
					}
					h.ctx.ForEachValid(s, func(b *Block, slot int) bool {
						id := *(*int64)(b.FieldPtr(slot, h.idF))
						if w := id >> 40; w < 0 || w >= workers {
							fail.Store(fmt.Sprintf("garbage id %#x", id))
							return false
						}
						return true
					})
				}
			}()

			// Compactor loop, rotating the move-phase worker count so the
			// parallel fan-out runs under churn too.
			deadline := time.After(400 * time.Millisecond)
			func() {
				for pass := 0; ; pass++ {
					select {
					case <-deadline:
						close(stop)
						return
					default:
						workers := []int{1, 2, 4}[pass%3]
						if _, err := h.m.compactNowWorkers(workers); err != nil {
							fail.Store(err.Error())
							close(stop)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
			}()
			wg.Wait()
			if msg := fail.Load(); msg != nil {
				t.Fatal(msg)
			}

			// Quiesced: every surviving ref resolves to its exact id.
			total := 0
			for w := 0; w < workers; w++ {
				for _, o := range survivors[w] {
					id, _, err := h.get(h.s, o.ref)
					if err != nil {
						t.Fatalf("survivor %#x: %v", o.id, err)
					}
					if id != o.id {
						t.Fatalf("survivor ref resolved to %#x, want %#x (wrong object!)", id, o.id)
					}
					total++
				}
			}
			if got := h.count(); got != total {
				t.Fatalf("Len = %d, survivors = %d", got, total)
			}
		})
	}
}

// Direct-pointer fix-up (§6): objects in a source context hold raw
// {addr,inc} pointers into a target context; after compacting the target,
// the pointers must be rewritten (or tombstone-chased) to the new
// locations.

// testRef makes types.Ref usable as a schema field in this test.
type testRef struct{ R types.Ref }

func (testRef) RefTargetType() reflectType { return reflectTypeOf(testObj{}) }

type srcObj struct {
	ID     int64
	Friend testRef // stands in for a direct pointer field (16 bytes)
}

func TestDirectPointerFixupAfterCompaction(t *testing.T) {
	m, err := NewManager(Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	target, err := m.NewContext("target", testSchema, RowDirect)
	if err != nil {
		t.Fatal(err)
	}
	srcSchema := schema.MustOf[srcObj]()
	src, err := m.NewContext("src", srcSchema, RowDirect)
	if err != nil {
		t.Fatal(err)
	}
	friendF := srcSchema.MustField("Friend")
	idF := testSchema.MustField("ID")
	srcIDF := srcSchema.MustField("ID")
	target.RegisterRefEdge(src, friendF.Index, true)

	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Populate the target sparsely across several blocks.
	cap := target.BlockCapacity()
	n := cap * 4
	trefs := make([]types.Ref, 0, n)
	for i := 0; i < n; i++ {
		ref, obj, err := target.Alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		*(*int64)(obj.Blk.FieldPtr(obj.Slot, idF)) = int64(i)
		target.Publish(s, obj)
		trefs = append(trefs, ref)
	}
	s.allocBlocks[target.id] = nil
	for _, b := range target.SnapshotBlocks() {
		b.allocOwned.Store(false)
	}

	// Source objects point at every 10th target object via direct
	// {addr,inc} words, as the collection layer would store them.
	type link struct {
		srcRef types.Ref
		want   int64
	}
	var links []link
	s.Enter()
	for i := 0; i < n; i += 10 {
		tobj, err := target.Deref(s, trefs[i])
		if err != nil {
			t.Fatal(err)
		}
		ref, obj, err := src.Alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		*(*int64)(obj.Blk.FieldPtr(obj.Slot, srcIDF)) = int64(i)
		fp := obj.Blk.FieldPtr(obj.Slot, friendF)
		*(*uint64)(fp) = uint64(uintptr(tobj.Ptr))
		*(*uint32)(unsafe.Add(fp, 8)) = trefs[i].Inc
		src.Publish(s, obj)
		links = append(links, link{ref, int64(i)})
	}
	s.Exit()
	s.allocBlocks[src.id] = nil

	// Remove everything in the target except the referenced objects.
	s.Enter()
	for i, r := range trefs {
		if i%10 != 0 {
			if err := target.Remove(s, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Exit()

	moved, err := m.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no objects moved")
	}

	// Every source object's direct pointer must now reach the relocated
	// target object.
	s.Enter()
	for _, l := range links {
		obj, err := src.Deref(s, l.srcRef)
		if err != nil {
			t.Fatal(err)
		}
		fp := obj.Field(friendF)
		addr := types.LaunderAddr(uintptr(*(*uint64)(fp)))
		inc := *(*uint32)(unsafe.Add(fp, 8))
		p, err := target.DerefDirect(s, addr, inc)
		if err != nil {
			t.Fatalf("direct deref for %d: %v", l.want, err)
		}
		got := *(*int64)(unsafe.Add(p, idF.Offset))
		if got != l.want {
			t.Fatalf("direct pointer resolved to %d, want %d", got, l.want)
		}
	}
	s.Exit()
}

// TestDerefDirectTombstoneChase verifies a stale direct pointer (not yet
// fixed up) still reaches the moved object through the forwarding flag
// and back-pointer (§6, Figure 5).
func TestDerefDirectTombstoneChase(t *testing.T) {
	h := newHarness(t, RowDirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)

	// Capture raw direct pointers before compaction.
	type raw struct {
		addr unsafe.Pointer
		inc  uint32
		want int64
	}
	var raws []raw
	h.s.Enter()
	for id, r := range survivors {
		obj, err := h.ctx.Deref(h.s, r)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw{obj.Ptr, r.Inc, id})
	}
	h.s.Exit()

	if _, err := h.m.CompactNow(); err != nil {
		t.Fatal(err)
	}

	h.s.Enter()
	chased := 0
	for _, rw := range raws {
		p, err := h.ctx.DerefDirect(h.s, rw.addr, rw.inc)
		if err != nil {
			t.Fatalf("tombstone chase for %d: %v", rw.want, err)
		}
		if p != rw.addr {
			chased++
		}
		got := *(*int64)(unsafe.Add(p, h.idF.Offset))
		if got != rw.want {
			t.Fatalf("chased to %d, want %d", got, rw.want)
		}
	}
	h.s.Exit()
	if chased == 0 {
		t.Fatal("no pointer was actually relocated; test vacuous")
	}
}

func TestBackgroundCompactor(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	stopc := h.m.StartMaintainer(MaintainerConfig{Interval: 2 * time.Millisecond}).Stop
	defer stopc()
	deadline := time.Now().Add(2 * time.Second)
	for h.m.Stats().Compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never ran")
		}
		time.Sleep(time.Millisecond)
	}
	stopc()
	verifySurvivors(t, h, survivors)
}

// TestPlanGroupsSizeSortedPacking: on a deterministic five-block heap
// with occupancies 60/50/40/30/20% of capacity, first-fit decreasing
// packs {60,40} and {50,30,20}: two groups that empty all five source
// blocks. (Block-order greedy packing would orphan the 60% block into a
// released singleton on this shape.)
func TestPlanGroupsSizeSortedPacking(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize: 1 << 13,
		// Every block below 95% occupancy is a candidate, so the packing
		// policy — not candidate selection — decides the outcome.
		CompactionThreshold: 0.95,
		CompactionPacking:   PackSize,
		HeapBackend:         true,
	})
	cap := h.ctx.BlockCapacity()
	refs := make([]types.Ref, 0, cap*5)
	for i := 0; i < cap*5; i++ {
		refs = append(refs, h.add(t, h.s, int64(i), "p"))
	}
	h.s.allocBlocks[h.ctx.id] = nil
	for _, b := range h.ctx.SnapshotBlocks() {
		b.allocOwned.Store(false)
	}
	keepPct := []int{60, 50, 40, 30, 20}
	for blk := 0; blk < 5; blk++ {
		keep := cap * keepPct[blk] / 100
		for slot := keep; slot < cap; slot++ {
			if err := h.remove(h.s, refs[blk*cap+slot]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.m.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if g := h.m.stats.GroupsMoved.Load(); g != 2 {
		t.Fatalf("size-sorted packing moved %d groups, want 2 ({60,40} and {50,30,20})", g)
	}
	if got, want := h.m.stats.BytesReclaimed.Load(), int64(5*h.m.cfg.BlockSize); got != want {
		t.Fatalf("reclaimed %d bytes, want %d (all five source blocks)", got, want)
	}
}
