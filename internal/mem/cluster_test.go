package mem

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/types"
)

// clusterScatterLoad fills the harness with `blocks` blocks' worth of
// rows whose IDs are a pseudo-random permutation of 0..n-1, so every
// block's bounds span essentially the whole domain — the shape a churned
// heap degenerates to, where zone maps prune nothing. It then removes
// a seeded 40% sample (leaving every block under the default threshold)
// and releases the allocation claim so all blocks are candidates.
func clusterScatterLoad(t *testing.T, h *harness, blocks int, seed int64) map[int64]types.Ref {
	t.Helper()
	n := h.ctx.BlockCapacity() * blocks
	rng := rand.New(rand.NewSource(seed))
	refs := make(map[int64]types.Ref, n)
	for _, id := range rng.Perm(n) {
		refs[int64(id)] = h.add(t, h.s, int64(id), fmt.Sprintf("s%d", id))
	}
	h.s.allocBlocks[h.ctx.id] = nil
	for _, b := range h.ctx.SnapshotBlocks() {
		b.allocOwned.Store(false)
	}
	for _, id := range rng.Perm(n)[:n*40/100] {
		if err := h.remove(h.s, refs[int64(id)]); err != nil {
			t.Fatal(err)
		}
		delete(refs, int64(id))
	}
	return refs
}

// blockSpans returns the exact [lo,hi] ID span of every non-empty block,
// sorted by lo, asserting every row lies within its synopsis bounds.
func blockSpans(t *testing.T, h *harness) [][2]int64 {
	t.Helper()
	var spans [][2]int64
	for _, b := range h.ctx.SnapshotBlocks() {
		if b.Valid() == 0 {
			continue
		}
		slo, shi, ok := b.SynopsisBounds("ID")
		if !ok {
			t.Fatalf("block %d: %d valid rows but empty bounds", b.ID(), b.Valid())
		}
		lo, hi := int64(1)<<62, int64(-1)<<62
		for slot := 0; slot < b.Capacity(); slot++ {
			if !b.SlotIsValid(slot) {
				continue
			}
			v := *(*int64)(b.FieldPtr(slot, h.idF))
			if v < slo || v > shi {
				t.Fatalf("block %d: row %d outside synopsis bounds [%d,%d]", b.ID(), v, slo, shi)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		spans = append(spans, [2]int64{lo, hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	return spans
}

// countPruned runs a point-window predicated scan and returns how many
// blocks the synopsis pruned vs admitted.
func countPruned(t *testing.T, h *harness, lo, hi int64) (pruned, scanned int64) {
	t.Helper()
	pred := h.ctx.Predicate().Int64Range("ID", lo, hi)
	p0 := h.m.stats.BlocksPruned.Load()
	s0 := h.m.stats.BlocksScanned.Load()
	if err := h.ctx.ScanParallelPredCtx(context.Background(), h.s, 2, pred, func(_ int, _ *Session, _ *Block) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return h.m.stats.BlocksPruned.Load() - p0, h.m.stats.BlocksScanned.Load() - s0
}

// TestClusterPackingRedistributes is the clustered-compaction contract
// test: from a fully scattered heap (every block's bounds span the whole
// domain) one maintenance pass under PackCluster must deal the surviving
// rows, key-sorted, across a multi-target group — rebuilt blocks come
// out as near-disjoint key slices, and a narrow window scan prunes at
// least as many blocks as size-only packing manages on the identical
// load (strictly more here: size-only rebuilds exact but arbitrary
// mixes, which stay domain-wide).
func TestClusterPackingRedistributes(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			const blocks, seed = 6, 7
			// A maintenance-aggressive threshold: the 40% removal leaves
			// blocks at 60% occupancy, which must still be rewritable or
			// the scattered blocks would sit out the pass (the scenario
			// the cluster figure's churned heaps exercise).
			mk := func(packing PackingMode) *harness {
				h := newHarness(t, layout, Config{
					BlockSize: 1 << 13, HeapBackend: true,
					CompactionPacking: packing, CompactionThreshold: 0.85,
				})
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
			hc := mk(PackCluster)
			survivors := clusterScatterLoad(t, hc, blocks, seed)
			moved, err := hc.m.CompactNow()
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("clustered compaction moved nothing")
			}
			verifySurvivors(t, hc, survivors)

			// Redistribution produced multiple targets per group whose
			// exact spans tile the domain near-disjointly: sorted by lo,
			// each block must start past the previous block's hi (ties on
			// the boundary key are the only allowed overlap).
			spans := blockSpans(t, hc)
			if len(spans) < 2 {
				t.Fatalf("scatter heap compacted into %d blocks; need several targets", len(spans))
			}
			for i := 1; i < len(spans); i++ {
				if spans[i][0] < spans[i-1][1] {
					t.Fatalf("blocks overlap after clustered pass: [%d,%d] then [%d,%d]",
						spans[i-1][0], spans[i-1][1], spans[i][0], spans[i][1])
				}
			}

			// The same load under size-only packing: exact rebuilds, but
			// arbitrary source mixes keep every target domain-wide. The
			// clustered heap must prune at least as many blocks on the
			// identical window (monotonicity), and actually prune some.
			hs := mk(PackSize)
			clusterScatterLoad(t, hs, blocks, seed)
			if _, err := hs.m.CompactNow(); err != nil {
				t.Fatal(err)
			}
			// A ~1% window at the first quartile (not the exact median,
			// which is a quantile-slice boundary).
			n := int64(hc.ctx.BlockCapacity() * blocks)
			wlo, whi := n/4, n/4+n/100
			cp, cs := countPruned(t, hc, wlo, whi)
			sp, ss := countPruned(t, hs, wlo, whi)
			if cp == 0 {
				t.Fatalf("clustered heap pruned nothing (scanned %d)", cs)
			}
			if cp < sp {
				t.Fatalf("clustered pass prunes less than size-only: %d < %d", cp, sp)
			}
			t.Logf("cluster: %d pruned/%d scanned; size: %d pruned/%d scanned", cp, cs, sp, ss)
		})
	}
}

// TestClusterPackingSizeModeUntouched pins the fallback: PackCluster
// without a registered cluster key must behave exactly like PackSize —
// one target per group, no key sorting, no redistribution.
func TestClusterPackingSizeModeUntouched(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true, CompactionPacking: PackCluster})
	if err := h.ctx.RegisterSynopses("ID"); err != nil {
		t.Fatal(err)
	}
	// No RegisterClusterKey: clusterKeySlot() < 0 falls back to PackSize.
	survivors := churnToLowOccupancy(t, h, 4)
	moved, err := h.m.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	verifySurvivors(t, h, survivors)
}
