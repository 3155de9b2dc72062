package mem

import (
	"context"
	"testing"
)

// TestParallelScanSessionPoolReuse: repeated parallel scans must reuse
// worker sessions from the manager's pool instead of registering fresh
// epoch slots per scan.
func TestParallelScanSessionPoolReuse(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	n := h.ctx.BlockCapacity()*6 + 3
	for i := 0; i < n; i++ {
		h.add(t, h.s, int64(i), "x")
	}
	const workers, scans = 4, 50
	for i := 0; i < scans; i++ {
		if err := h.ctx.ScanParallelPredCtx(context.Background(), h.s, workers, nil, func(int, *Session, *Block) error { return nil }); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	leased := h.m.stats.SessionsLeased.Load()
	reused := h.m.stats.SessionsReused.Load()
	fresh := leased - reused
	if leased != workers*scans {
		t.Fatalf("leased %d sessions, want %d", leased, workers*scans)
	}
	// Only the very first scan may register sessions; every later scan
	// must draw fully from the pool.
	if fresh != workers {
		t.Fatalf("%d fresh registrations across %d scans, want %d", fresh, scans, workers)
	}
}

// TestParallelScanSessionPoolTrimNoSlotLeak: with the pool trimmed to
// empty between scans (what the governor's reclaim pass does), every
// scan registers fresh sessions and the trimmed ones give their epoch
// slots back.
func TestParallelScanSessionPoolTrimNoSlotLeak(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	n := h.ctx.BlockCapacity()*6 + 3
	for i := 0; i < n; i++ {
		h.add(t, h.s, int64(i), "x")
	}
	const workers, scans = 4, 10
	for i := 0; i < scans; i++ {
		if err := h.ctx.ScanParallelPredCtx(context.Background(), h.s, workers, nil, func(int, *Session, *Block) error { return nil }); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		h.m.trimSessionPool()
	}
	if reused := h.m.stats.SessionsReused.Load(); reused != 0 {
		t.Fatalf("reused %d sessions from a pool trimmed between scans", reused)
	}
	// Epoch slots must not leak: a fresh registration still succeeds
	// after scans*workers trimmed sessions came and went.
	s, err := h.m.NewSession()
	if err != nil {
		t.Fatalf("session slots leaked: %v", err)
	}
	s.Close()
}

// BenchmarkParallelScanSmall measures a small parallel scan end to end —
// the regime where per-scan session registration dominates — with the
// session pool kept, and trimmed to empty after every scan.
func BenchmarkParallelScanSmall(b *testing.B) {
	for _, pooled := range []bool{true, false} {
		name := "pooled"
		if !pooled {
			name = "fresh-sessions"
		}
		b.Run(name, func(b *testing.B) {
			m, err := NewManager(Config{BlockSize: 1 << 13, HeapBackend: true})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx, err := m.NewContext("bench", testSchema, RowIndirect)
			if err != nil {
				b.Fatal(err)
			}
			s, err := m.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			idF := testSchema.MustField("ID")
			for i := 0; i < ctx.BlockCapacity()*8; i++ {
				ref, obj, err := ctx.Alloc(s)
				if err != nil {
					b.Fatal(err)
				}
				_ = ref
				*(*int64)(obj.Blk.FieldPtr(obj.Slot, idF)) = int64(i)
				ctx.Publish(s, obj)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sums [4]struct {
					v int64
					_ [56]byte
				}
				err := ctx.ScanParallelPredCtx(context.Background(), s, 4, nil, func(w int, _ *Session, blk *Block) error {
					for slot := 0; slot < blk.Capacity(); slot++ {
						if blk.SlotIsValid(slot) {
							sums[w].v += *(*int64)(blk.FieldPtr(slot, idF))
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if !pooled {
					m.trimSessionPool()
				}
			}
		})
	}
}
