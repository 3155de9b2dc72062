package mem

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// scanIDs drains a parallel scan with the given worker count and returns
// every ID seen, with duplicate detection.
func scanIDs(t *testing.T, h *harness, workers int) map[int64]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[int64]int)
	err := h.ctx.ScanParallelPredCtx(context.Background(), h.s, workers, nil, func(_ int, _ *Session, b *Block) error {
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

func TestParallelScanMatchesSerial(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			n := h.ctx.BlockCapacity()*4 + 7
			refs := make(map[int64]bool, n)
			for i := 0; i < n; i++ {
				ref := h.add(t, h.s, int64(i), fmt.Sprintf("s%d", i))
				if i%3 == 0 {
					if err := h.remove(h.s, ref); err != nil {
						t.Fatal(err)
					}
				} else {
					refs[int64(i)] = true
				}
			}
			serial := make(map[int64]int)
			h.ctx.ForEachValid(h.s, func(b *Block, slot int) bool {
				serial[*(*int64)(b.FieldPtr(slot, h.idF))]++
				return true
			})
			for _, workers := range []int{1, 2, 4, 9} {
				par := scanIDs(t, h, workers)
				if len(par) != len(serial) {
					t.Fatalf("workers=%d: parallel saw %d ids, serial %d", workers, len(par), len(serial))
				}
				for id, cnt := range par {
					if cnt != 1 {
						t.Fatalf("workers=%d: id %d seen %d times", workers, id, cnt)
					}
					if !refs[id] {
						t.Fatalf("workers=%d: saw removed id %d", workers, id)
					}
				}
			}
		})
	}
}

// TestParallelScanEmptyBlockFastPath checks that blocks with no valid
// slots are skipped before the per-slot loop runs.
func TestParallelScanEmptyBlockFastPath(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	cap := h.ctx.BlockCapacity()
	for i := 0; i < cap*3; i++ {
		h.add(t, h.s, int64(i), "x")
	}
	// Empty the middle block entirely.
	blocks := h.ctx.SnapshotBlocks()
	if len(blocks) < 3 {
		t.Fatalf("want >=3 blocks, got %d", len(blocks))
	}
	mid := blocks[1]
	for slot := 0; slot < mid.capacity; slot++ {
		if !mid.SlotIsValid(slot) {
			continue
		}
		h.s.Enter()
		ref := h.ctx.MakeRef(mid, slot)
		if err := h.ctx.Remove(h.s, ref); err != nil {
			t.Fatal(err)
		}
		h.s.Exit()
	}
	if mid.Valid() != 0 {
		t.Fatalf("middle block still has %d valid slots", mid.Valid())
	}
	visited := 0
	h.s.Enter()
	en := h.ctx.NewEnumerator(h.s)
	for {
		b, ok := en.NextBlock()
		if !ok {
			break
		}
		if b == mid {
			t.Fatal("enumerator returned an empty block")
		}
		visited++
	}
	en.Close()
	h.s.Exit()
	if visited == 0 {
		t.Fatal("no blocks visited")
	}
}

// TestParallelScanPinsOutCompaction: a compaction planned while a
// parallel scan is open must not move anything (the pinned coordinator
// epoch stalls its epoch waits), and the scan's view stays exactly-once.
func TestParallelScanPinsOutCompaction(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:   1 << 13,
		HeapBackend: true,
	})
	survivors := churnToLowOccupancy(t, h, 4)

	ps := h.ctx.NewParallelScanPredCtx(context.Background(), h.s, nil)
	// Compaction planned after the scan opened: must abort moving.
	movedBefore := h.m.stats.ObjectsMoved.Load()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = h.m.CompactNow()
	}()

	ws, err := h.m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	seen := make(map[int64]int)
	ws.Enter()
	for {
		b, ok := ps.Next(ws)
		if !ok {
			break
		}
		for slot := 0; slot < b.capacity; slot++ {
			if !b.SlotIsValid(slot) {
				continue
			}
			seen[*(*int64)(b.FieldPtr(slot, h.idF))]++
		}
	}
	ws.Exit()
	<-done // the compaction attempt has finished (aborted or not)
	ps.Close()

	if moved := h.m.stats.ObjectsMoved.Load(); moved != movedBefore {
		t.Fatalf("compaction moved %d objects under an open parallel scan", moved-movedBefore)
	}
	if len(seen) != len(survivors) {
		t.Fatalf("scan saw %d ids, want %d", len(seen), len(survivors))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d seen %d times", id, n)
		}
		if _, ok := survivors[id]; !ok {
			t.Fatalf("saw unexpected id %d", id)
		}
	}

	// With the scan closed, compaction proceeds and the parallel view
	// still matches (post-state this time).
	if _, err := h.m.CompactNow(); err != nil {
		t.Fatal(err)
	}
	after := scanIDs(t, h, 4)
	if len(after) != len(survivors) {
		t.Fatalf("post-compaction scan saw %d ids, want %d", len(after), len(survivors))
	}
}

// TestParallelScanStress runs parallel scans against concurrent
// add/remove churn and repeated compactions: every stable object must be
// seen exactly once per scan, and nothing may ever be seen twice.
func TestParallelScanStress(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.10,
				HeapBackend:      true,
			})

			const stableCount = 300
			stable := make(map[int64]bool, stableCount)
			for i := 0; i < stableCount; i++ {
				h.add(t, h.s, int64(i), "stable")
				stable[int64(i)] = true
			}

			stop := make(chan struct{})
			var fail atomic.Value
			var wg sync.WaitGroup

			// Churners: add transient objects, remove most of them.
			const churners = 2
			for w := 0; w < churners; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := h.m.NewSession()
					if err != nil {
						fail.Store(err.Error())
						return
					}
					defer s.Close()
					next := int64(1)<<40 | int64(w)<<32
					type pair struct {
						id  int64
						ref types.Ref
					}
					var pool []pair
					for {
						select {
						case <-stop:
							return
						default:
						}
						id := next
						next++
						ref, obj, err := h.ctx.Alloc(s)
						if err != nil {
							fail.Store(err.Error())
							return
						}
						*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.idF)) = id
						h.ctx.Publish(s, obj)
						pool = append(pool, pair{id, ref})
						if len(pool) > 8 {
							victim := pool[0]
							pool = pool[1:]
							s.Enter()
							err := h.ctx.Remove(s, victim.ref)
							s.Exit()
							if err != nil {
								fail.Store(fmt.Sprintf("remove %#x: %v", victim.id, err))
								return
							}
						}
					}
				}(w)
			}

			// Compactor loop.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if _, err := h.m.CompactNow(); err != nil {
							fail.Store(err.Error())
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
			}()

			// Scanner: repeated parallel scans asserting exactly-once.
			deadline := time.Now().Add(400 * time.Millisecond)
			coord, err := h.m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			scans := 0
			for time.Now().Before(deadline) && fail.Load() == nil {
				var mu sync.Mutex
				counts := make(map[int64]int)
				err := h.ctx.ScanParallelPredCtx(context.Background(), coord, 4, nil, func(_ int, _ *Session, b *Block) error {
					local := make([]int64, 0, b.capacity)
					for slot := 0; slot < b.capacity; slot++ {
						if !b.SlotIsValid(slot) {
							continue
						}
						local = append(local, *(*int64)(b.FieldPtr(slot, h.idF)))
					}
					mu.Lock()
					for _, id := range local {
						counts[id]++
					}
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("scan %d: %v", scans, err)
				}
				for id, n := range counts {
					if n != 1 {
						t.Fatalf("scan %d: id %#x seen %d times", scans, id, n)
					}
				}
				for id := range stable {
					if counts[id] != 1 {
						t.Fatalf("scan %d: stable id %d seen %d times", scans, id, counts[id])
					}
				}
				scans++
			}
			close(stop)
			wg.Wait()
			if msg := fail.Load(); msg != nil {
				t.Fatal(msg)
			}
			if scans == 0 {
				t.Fatal("no scans completed")
			}
		})
	}
}
