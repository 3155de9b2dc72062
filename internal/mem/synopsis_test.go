package mem

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/decimal"
	"repro/internal/types"
)

// synHarness is a harness whose context carries an ID synopsis
// (registration must precede the first block, so it cannot be bolted
// onto an already-loaded harness).
func newSynHarness(t *testing.T, layout Layout) *harness {
	return newSynHarnessPacked(t, layout, PackSize)
}

// newSynHarnessPacked is newSynHarness under an explicit compaction
// packing mode; PackCluster additionally registers ID as the cluster
// key, so maintenance passes re-sort by it.
func newSynHarnessPacked(t *testing.T, layout Layout, packing PackingMode) *harness {
	t.Helper()
	h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true, CompactionPacking: packing})
	if err := h.ctx.RegisterSynopses("ID"); err != nil {
		t.Fatal(err)
	}
	if packing == PackCluster {
		if err := h.ctx.RegisterClusterKey("ID"); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestSynopsisRegisterValidation(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	if err := h.ctx.RegisterSynopses("NoSuchField"); err == nil {
		t.Fatal("registering an unknown field succeeded")
	}
	if err := h.ctx.RegisterSynopses("Name"); err == nil {
		t.Fatal("registering a string field succeeded")
	}
	if err := h.ctx.RegisterSynopses("ID"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration keeps one synopsis slot.
	if err := h.ctx.RegisterSynopses("ID"); err != nil {
		t.Fatal(err)
	}
	h.add(t, h.s, 1, "x")
	if err := h.ctx.RegisterSynopses("ID"); err == nil {
		t.Fatal("registering after block allocation succeeded")
	}
}

// TestSynopsisWidenOnInsert: bounds cover exactly the inserted values as
// they widen, block by block.
func TestSynopsisWidenOnInsert(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newSynHarness(t, layout)
			n := h.ctx.BlockCapacity()*2 + 5
			for i := 0; i < n; i++ {
				h.add(t, h.s, int64(i*10), "v")
			}
			for _, b := range h.ctx.SnapshotBlocks() {
				if b.Valid() == 0 {
					continue
				}
				lo, hi, ok := b.SynopsisBounds("ID")
				if !ok {
					t.Fatalf("block %d: no bounds despite %d valid rows", b.ID(), b.Valid())
				}
				wantLo, wantHi := int64(math.MaxInt64), int64(math.MinInt64)
				for slot := 0; slot < b.Capacity(); slot++ {
					if !b.SlotIsValid(slot) {
						continue
					}
					v := *(*int64)(b.FieldPtr(slot, h.idF))
					if v < wantLo {
						wantLo = v
					}
					if v > wantHi {
						wantHi = v
					}
				}
				if lo != wantLo || hi != wantHi {
					t.Fatalf("block %d bounds [%d,%d], rows span [%d,%d]", b.ID(), lo, hi, wantLo, wantHi)
				}
			}
		})
	}
}

// TestSynopsisRemoveNeverTightens is the regression test for the
// stale-but-sound half of the contract: removing rows must leave bounds
// byte-identical — a tightening remove could turn a loose bound into a
// wrong one under concurrency.
func TestSynopsisRemoveNeverTightens(t *testing.T) {
	h := newSynHarness(t, RowIndirect)
	n := h.ctx.BlockCapacity() + 10
	refs := make([]types.Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, h.add(t, h.s, int64(i), "v"))
	}
	type bnds struct{ lo, hi int64 }
	before := map[uint32]bnds{}
	for _, b := range h.ctx.SnapshotBlocks() {
		if lo, hi, ok := b.SynopsisBounds("ID"); ok {
			before[b.ID()] = bnds{lo, hi}
		}
	}
	// Remove the extreme rows of every block — the ones whose values
	// define the bounds.
	for i, r := range refs {
		if i%2 == 0 {
			if err := h.remove(h.s, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range h.ctx.SnapshotBlocks() {
		lo, hi, ok := b.SynopsisBounds("ID")
		want, had := before[b.ID()]
		if had != ok || (ok && (lo != want.lo || hi != want.hi)) {
			t.Fatalf("block %d bounds changed on remove: [%d,%d] want [%d,%d]", b.ID(), lo, hi, want.lo, want.hi)
		}
	}
}

// TestSynopsisCompactionRebuildTightens: after churn leaves bounds
// stale-wide, a compaction pass must produce a target whose bounds are
// exactly the survivors' min/max — strictly tighter than the widest
// stale source — and count the rebuild.
func TestSynopsisCompactionRebuildTightens(t *testing.T) {
	h := newSynHarness(t, RowIndirect)
	survivors := churnToLowOccupancy(t, h, 4)
	rebuildsBefore := h.m.stats.SynopsisRebuilds.Load()
	moved, err := h.m.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if h.m.stats.SynopsisRebuilds.Load() == rebuildsBefore {
		t.Fatal("SynopsisRebuilds did not move")
	}
	wantLo, wantHi := int64(math.MaxInt64), int64(math.MinInt64)
	for id := range survivors {
		if id < wantLo {
			wantLo = id
		}
		if id > wantHi {
			wantHi = id
		}
	}
	// Every live row must lie inside its block's bounds, and at least one
	// block (a compaction target) must have exact bounds despite the
	// churn having spanned the full ID range.
	exact := false
	for _, b := range h.ctx.SnapshotBlocks() {
		if b.Valid() == 0 {
			continue
		}
		lo, hi, ok := b.SynopsisBounds("ID")
		if !ok {
			t.Fatalf("block %d: live rows but empty bounds", b.ID())
		}
		blo, bhi := int64(math.MaxInt64), int64(math.MinInt64)
		for slot := 0; slot < b.Capacity(); slot++ {
			if !b.SlotIsValid(slot) {
				continue
			}
			v := *(*int64)(b.FieldPtr(slot, h.idF))
			if v < lo || v > hi {
				t.Fatalf("block %d: row %d outside bounds [%d,%d]", b.ID(), v, lo, hi)
			}
			if v < blo {
				blo = v
			}
			if v > bhi {
				bhi = v
			}
		}
		if lo == blo && hi == bhi {
			exact = true
		}
	}
	if !exact {
		t.Fatal("no block has exact bounds after compaction (rebuild did not tighten)")
	}
	verifySurvivors(t, h, survivors)
}

// TestQuickSynopsisSoundness is the property test for the soundness
// invariant: after any interleaving of add, remove, epoch advancement
// and compaction, every live row's value lies within its block's
// synopsis bounds. Runs under both the default size packing and
// clustered packing (where compaction additionally redistributes by
// key across several targets) — the soundness contract is identical.
func TestQuickSynopsisSoundness(t *testing.T) {
	for _, layout := range allLayouts() {
		for _, packing := range []PackingMode{PackSize, PackCluster} {
			layout, packing := layout, packing
			t.Run(layout.String()+"/"+packing.String(), func(t *testing.T) {
				f := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					h := newSynHarnessPacked(t, layout, packing)
					var live []types.Ref
					nextID := int64(0)
					check := func() bool {
						for _, b := range h.ctx.SnapshotBlocks() {
							for slot := 0; slot < b.Capacity(); slot++ {
								if !b.SlotIsValid(slot) {
									continue
								}
								v := *(*int64)(b.FieldPtr(slot, h.idF))
								lo, hi, ok := b.SynopsisBounds("ID")
								if !ok || v < lo || v > hi {
									t.Logf("block %d: live row %d outside bounds [%d,%d] (ok=%v)", b.ID(), v, lo, hi, ok)
									return false
								}
							}
						}
						return true
					}
					for op := 0; op < 300; op++ {
						switch r := rng.Intn(12); {
						case r < 6 || len(live) == 0:
							// Spread values over a wide domain so stale bounds
							// and exact rebuilds are distinguishable.
							id := nextID*1_000_003 - 500_000
							nextID++
							live = append(live, h.add(t, h.s, id, "q"))
						case r < 9:
							i := rng.Intn(len(live))
							if err := h.remove(h.s, live[i]); err != nil {
								t.Logf("remove: %v", err)
								return false
							}
							live = append(live[:i], live[i+1:]...)
						case r < 10:
							h.m.TryAdvanceEpoch()
						default:
							// Release the allocation claim so blocks can form
							// groups, then compact.
							h.s.allocBlocks[h.ctx.id] = nil
							for _, b := range h.ctx.SnapshotBlocks() {
								b.allocOwned.Store(false)
							}
							if _, err := h.m.CompactNow(); err != nil {
								t.Logf("compact: %v", err)
								return false
							}
						}
						if op%50 == 0 && !check() {
							return false
						}
					}
					return check()
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// prunedScanIDs drains a predicated parallel scan, returning every ID in
// the admitted blocks.
func prunedScanIDs(t *testing.T, h *harness, workers int, pred *ScanPredicate) map[int64]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[int64]int)
	err := h.ctx.ScanParallelPredCtx(context.Background(), h.s, workers, pred, func(_ int, _ *Session, b *Block) error {
		local := make(map[int64]int)
		for slot := 0; slot < b.capacity; slot++ {
			if !b.SlotIsValid(slot) {
				continue
			}
			local[*(*int64)(b.FieldPtr(slot, h.idF))]++
		}
		mu.Lock()
		for id, n := range local {
			seen[id] += n
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanParallelPredCtx: %v", err)
	}
	return seen
}

// TestParallelScanPredPrunesAndMatches: a predicated scan must (a) admit
// every matching row exactly once, (b) actually skip blocks on a
// clustered load, and (c) agree with the serial predicated enumerator.
func TestParallelScanPredPrunesAndMatches(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newSynHarness(t, layout)
			// Sequential IDs cluster by insertion order, so block bounds
			// are disjoint ranges — the zone-map-friendly shape.
			n := h.ctx.BlockCapacity()*6 + 3
			for i := 0; i < n; i++ {
				h.add(t, h.s, int64(i), "v")
			}
			lo, hi := int64(n/3), int64(n/3+n/10)
			pred := h.ctx.Predicate().Int64Range("ID", lo, hi)

			prunedBefore := h.m.stats.BlocksPruned.Load()
			scannedBefore := h.m.stats.BlocksScanned.Load()
			for _, workers := range []int{1, 2, 4} {
				seen := prunedScanIDs(t, h, workers, pred)
				for id := lo; id <= hi; id++ {
					if seen[id] != 1 {
						t.Fatalf("workers=%d: matching id %d seen %d times", workers, id, seen[id])
					}
				}
				for id := range seen {
					// Admitted non-matching rows ride along in partially
					// matching blocks; with sequential IDs they can be at
					// most one block away from the interval.
					if id < lo-int64(h.ctx.BlockCapacity()) || id > hi+int64(h.ctx.BlockCapacity()) {
						t.Fatalf("workers=%d: id %d admitted from a block that cannot contain matches", workers, id)
					}
				}
			}
			if h.m.stats.BlocksPruned.Load() == prunedBefore {
				t.Fatal("no blocks pruned on a clustered load")
			}
			if h.m.stats.BlocksScanned.Load() == scannedBefore {
				t.Fatal("BlocksScanned did not move")
			}

			// Serial predicated enumerator sees the same admitted IDs.
			serial := make(map[int64]int)
			h.s.Enter()
			en := h.ctx.newEnumerator(context.Background(), h.s, pred)
			for {
				b, ok := en.NextBlock()
				if !ok {
					break
				}
				for slot := 0; slot < b.Capacity(); slot++ {
					if !b.SlotIsValid(slot) {
						continue
					}
					serial[*(*int64)(b.FieldPtr(slot, h.idF))]++
				}
			}
			en.Close()
			h.s.Exit()
			par := prunedScanIDs(t, h, 3, pred)
			if len(par) != len(serial) {
				t.Fatalf("parallel admitted %d ids, serial %d", len(par), len(serial))
			}
			for id := range serial {
				if par[id] != 1 {
					t.Fatalf("id %d: parallel %d, serial %d", id, par[id], serial[id])
				}
			}
		})
	}
}

// TestParallelPrunedScanMaintainerChurnStress: predicated scans under
// add/remove churn with an active Maintainer must keep seeing every
// stable matching row exactly once — blocks appear, empty, compact and
// re-tighten underneath the scans. Run with -race (race-stress).
func TestParallelPrunedScanMaintainerChurnStress(t *testing.T) {
	h := newSynHarness(t, RowIndirect)
	const stable = 500
	for i := 0; i < stable; i++ {
		h.add(t, h.s, int64(i), "stable")
	}
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	defer mt.Stop()

	stop := make(chan struct{})
	var fail atomic.Value
	var wg sync.WaitGroup
	const churners = 2
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs, err := h.m.NewSession()
			if err != nil {
				fail.Store(err.Error())
				return
			}
			defer cs.Close()
			var pool []types.Ref
			// Churn IDs live far outside the stable range, so the
			// predicate provably excludes them; their blocks widen and
			// may later tighten back via compaction.
			id := int64(1) << 40
			for {
				select {
				case <-stop:
					return
				default:
				}
				pool = append(pool, h.add(t, cs, id+int64(w), "churn"))
				id++
				if len(pool) > 24 {
					victim := pool[0]
					pool = pool[1:]
					cs.Enter()
					err := h.ctx.Remove(cs, victim)
					cs.Exit()
					if err != nil {
						fail.Store(err.Error())
						return
					}
				}
			}
		}(w)
	}

	pred := h.ctx.Predicate().Int64Range("ID", 0, stable-1)
	deadline := time.Now().Add(400 * time.Millisecond)
	runs := 0
	for time.Now().Before(deadline) && fail.Load() == nil {
		workers := 1 + runs%4
		seen := prunedScanIDs(t, h, workers, pred)
		for i := 0; i < stable; i++ {
			if seen[int64(i)] != 1 {
				t.Fatalf("run %d (workers=%d): stable id %d seen %d times", runs, workers, i, seen[int64(i)])
			}
		}
		runs++
	}
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if runs == 0 {
		t.Fatal("no pruned scans completed")
	}
}

// TestDecimalKeyMonotone pins the saturating decimal → key map the
// pruning soundness argument relies on: in-int64-range unit counts map
// to themselves, out-of-range values saturate without reordering.
func TestDecimalKeyMonotone(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -10000, -1, 0, 1, 10000, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	var prev int64
	for i, u := range vals {
		k := decimalKey(decimal.FromUnits(u))
		if i > 0 && k < prev {
			t.Fatalf("decimalKey not monotone at %d: %d < %d", u, k, prev)
		}
		if k != u {
			t.Fatalf("in-range value %d mapped to %d", u, k)
		}
		prev = k
	}
	// Out-of-int64-range values saturate without reordering.
	huge := decimal.FromUnits(math.MaxInt64).Add(decimal.FromUnits(math.MaxInt64))
	if k := decimalKey(huge); k != math.MaxInt64 {
		t.Fatalf("positive overflow key %d", k)
	}
	tiny := decimal.FromUnits(math.MinInt64).Add(decimal.FromUnits(math.MinInt64))
	if k := decimalKey(tiny); k != math.MinInt64 {
		t.Fatalf("negative overflow key %d", k)
	}
}
