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

// TestMaintainerCompactsAboveThreshold: a fragmented heap must trigger a
// compaction pass, after which every survivor still resolves.
func TestMaintainerCompactsAboveThreshold(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	survivors := churnToLowOccupancy(t, h, 4)
	f := h.m.FragmentationSnapshot()
	if f.MaxContextFragmented < 2 {
		t.Fatalf("churn produced only %d candidate blocks", f.MaxContextFragmented)
	}
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: 2 * time.Millisecond})
	defer mt.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for h.m.Stats().Compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintainer never compacted a fragmented heap")
		}
		time.Sleep(time.Millisecond)
	}
	mt.Stop()
	if mt.Passes() == 0 {
		t.Fatal("maintainer pass counter did not advance")
	}
	verifySurvivors(t, h, survivors)
}

// TestMaintainerAllocPressureWakeup: with the poll interval effectively
// disabled (one hour), crossing the candidate threshold must still
// trigger a pass — the abandonAllocBlock signal wakes the maintainer, so
// reclamation latency is bounded by the allocation path, not the tick.
func TestMaintainerAllocPressureWakeup(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{
		BlockSize:        1 << 13,
		ReclaimThreshold: 0.9,
		HeapBackend:      true,
	})
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Hour})
	defer mt.Stop()

	// Fragment the heap (no signal yet: churnToLowOccupancy abandons by
	// hand, not through the allocation path).
	survivors := churnToLowOccupancy(t, h, 4)
	if f := h.m.FragmentationSnapshot(); f.MaxContextFragmented < 2 {
		t.Fatalf("churn produced only %d candidate blocks", f.MaxContextFragmented)
	}
	// Fill one fresh block exactly, remove most of its rows (the limbo
	// slots stay unripe — nothing advances the epoch here), then allocate
	// once more: findSlot comes up empty, the session abandons the
	// now-sparse block, and that abandon — the block itself just became
	// a candidate — signals the wake channel. Allocation then moves to a
	// fresh block, so the candidates stay sparse for the maintainer's
	// snapshot.
	start := time.Now()
	cap := h.ctx.BlockCapacity()
	fills := make([]types.Ref, 0, cap)
	for i := 0; i < cap; i++ {
		fills = append(fills, h.add(t, h.s, int64(1_000_000+i), "fill"))
	}
	for _, r := range fills[:cap*4/5] {
		if err := h.remove(h.s, r); err != nil {
			t.Fatal(err)
		}
	}
	h.add(t, h.s, 2_000_000, "spill")
	deadline := time.Now().Add(5 * time.Second)
	for mt.Passes() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no pass within %v of allocation pressure (wakeups=%d, interval=1h)",
				time.Since(start), mt.Wakeups())
		}
		time.Sleep(time.Millisecond)
	}
	// The pass must have come from a wake-up, not a poll tick: the
	// interval is an hour and no tick can have fired.
	if mt.Ticks() != 0 {
		t.Fatalf("poll ticked %d times during an hour interval", mt.Ticks())
	}
	if mt.Wakeups() == 0 {
		t.Fatal("pass ran but no wake-up was recorded")
	}
	if lat := time.Since(start); lat > 5*time.Second {
		t.Fatalf("reclamation latency %v not below the poll interval", lat)
	}
	// Every survivor still resolves after the wake-triggered pass (the
	// fill rows added above keep verifySurvivors' exact-count check out).
	for id, r := range survivors {
		got, _, err := h.get(h.s, r)
		if err != nil || got != id {
			t.Fatalf("survivor %d after wake-up pass: (%d, %v)", id, got, err)
		}
	}
}

// TestMaintainerIdleBelowThreshold: a dense heap must never trigger a
// pass, however long the maintainer polls.
func TestMaintainerIdleBelowThreshold(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	for i := 0; i < 200; i++ {
		h.add(t, h.s, int64(i), "dense")
	}
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for mt.Ticks() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("maintainer never polled")
		}
		time.Sleep(time.Millisecond)
	}
	mt.Stop()
	if n := h.m.Stats().Compactions.Load(); n != 0 {
		t.Fatalf("maintainer ran %d passes on a dense heap", n)
	}
	if mt.Passes() != 0 {
		t.Fatalf("pass counter = %d on a dense heap", mt.Passes())
	}
}

// TestMaintainerReleasesAbandonedBlocks closes §3.5 over session close:
// a session that closes while it owns an emptied allocation block must
// not strand it. Each cycle opens a session, allocates one object,
// removes it and closes, abandoning a block with no valid row and one
// limbo slot — too few to requeue for reuse. After N cycles one
// compaction pass must bury every such block: the context's block count
// returns to zero rather than growing with N, the graveyard releases
// them, and each removed object's string is freed exactly once. Then,
// with the poll interval at an hour, one more abandon must wake the
// Maintainer, whose pass buries that block on its own.
func TestMaintainerReleasesAbandonedBlocks(t *testing.T) {
	const cycles = 50
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{BlockSize: 1 << 13, HeapBackend: true})
			abandon := func(id int64) {
				t.Helper()
				s, err := h.m.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				if err := h.remove(s, h.add(t, s, id, "abandoned")); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < cycles; i++ {
				abandon(int64(i))
			}
			if got := h.ctx.Blocks(); got != cycles {
				t.Fatalf("setup: %d blocks after %d cycles, want one per cycle", got, cycles)
			}
			for e := 0; e < 5; e++ {
				h.m.TryAdvanceEpoch()
			}
			if _, err := h.m.CompactNow(); err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 3; e++ {
				h.m.TryAdvanceEpoch()
			}
			h.m.drainGraveyard()
			if got := h.ctx.Blocks(); got != 0 {
				t.Fatalf("%d blocks left after %d abandon cycles and one pass, want 0", got, cycles)
			}
			if got := h.m.Stats().BlocksReleased.Load(); got != cycles {
				t.Fatalf("BlocksReleased = %d, want %d", got, cycles)
			}
			if live := h.ctx.strings.liveBytes.Load(); live != 0 {
				t.Fatalf("string heap holds %d live bytes after every object was removed and buried", live)
			}

			mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Hour})
			defer mt.Stop()
			abandon(cycles)
			deadline := time.Now().Add(5 * time.Second)
			for h.ctx.Blocks() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("Maintainer left the abandoned block in place (wakeups=%d, passes=%d)",
						mt.Wakeups(), mt.Passes())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestMaintainerCleanShutdown: Stop blocks until the goroutine exits,
// is idempotent, and is safe immediately after start.
func TestMaintainerCleanShutdown(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Hour})
	done := make(chan struct{})
	go func() {
		mt.Stop()
		mt.Stop() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	// The stop functions returned by the compat wrapper behave the same.
	stop := h.m.StartMaintainer(MaintainerConfig{Interval: time.Hour}).Stop
	stop()
	stop()
}

// TestMaintainerParallelScanChurnStress combines the background
// maintainer with parallel scans and add/remove churn: every scan must
// see each stable object exactly once and no object twice, while the
// maintainer compacts the churners' garbage behind them. Run with
// -race in CI.
func TestMaintainerParallelScanChurnStress(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			h := newHarness(t, layout, Config{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.10,
				HeapBackend:      true,
			})

			const stableCount = 250
			stable := make(map[int64]bool, stableCount)
			for i := 0; i < stableCount; i++ {
				h.add(t, h.s, int64(i), "stable")
				stable[int64(i)] = true
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
						// Remove most transients quickly: this is what
						// feeds the maintainer fragmented blocks.
						if len(pool) > 4 {
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
			mt.Stop()
			if msg := fail.Load(); msg != nil {
				t.Fatal(msg)
			}
			if scans == 0 {
				t.Fatal("no scans completed")
			}
			if mt.Passes() == 0 {
				t.Log("note: maintainer never triggered during the stress window")
			}
		})
	}
}
