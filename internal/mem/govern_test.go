package mem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// Governor suites: the reclaim pass before a typed refusal, the
// per-consumer accounting, and the 1000-cycle budget storm.

// fakePool is a GovernedPool whose retained footprint the test sets
// directly, which a real region.ArenaPool does not allow: a mutable
// retained footprint behind a mutex, with fill() standing in for
// queries parking arenas back into the idle set. The core suite drives
// a real pool through core.RegisterArenaPool.
type fakePool struct {
	mu       sync.Mutex
	retained int64
	trims    int64
}

func (p *fakePool) RetainedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

func (p *fakePool) TrimTo(target int64) int64 {
	if target < 0 {
		target = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	freed := p.retained - target
	if freed <= 0 {
		return 0
	}
	p.retained = target
	p.trims++
	return freed
}

// fill parks bytes back into the idle set, up to target.
func (p *fakePool) fill(target int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retained = max(p.retained, target)
}

// Stats and Returns complete GovernedPool; the fake leases nothing.
func (p *fakePool) Stats() (leases, reuses int64) { return 0, 0 }

func (p *fakePool) Returns() int64 { return 0 }

func (p *fakePool) trimCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trims
}

// pumpSessionPool leases n fresh sessions and returns them all, leaving
// the idle pool holding at least min(n, maxPooledSessions) sessions.
func pumpSessionPool(t *testing.T, m *Manager, n int) {
	t.Helper()
	sessions := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		s, err := m.LeaseSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		m.ReturnSession(s)
	}
}

// TestGovernorAdmitTrimsSlackBeforeFail is the admission ordering: an
// admission over the governed limit only because of idle arenas is
// admitted after one reclaim pass, which also closes the parked
// sessions; an admission over the limit on heap alone still runs the
// pass, then waits out budgetAdmitWait and is refused typed.
func TestGovernorAdmitTrimsSlackBeforeFail(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	const base = 1 << 20
	fp := &fakePool{retained: base}
	g.RegisterPool("fake", fp)
	pumpSessionPool(t, h.m, 8)
	g.SetLimit(base / 2)

	// The deficit is all idle slack: one pass clears it.
	if err := g.Admit(context.Background()); err != nil {
		t.Fatalf("Admit with trimmable slack failed: %v", err)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("retained after admit = %d, want 0", got)
	}
	if fp.trimCount() != 1 {
		t.Errorf("pool trimmed %d times, want one pass", fp.trimCount())
	}
	snap := g.Snapshot()
	if snap.PooledSessions != 0 || snap.SessionsTrimmed < 8 {
		t.Errorf("parked sessions after admit = %d (closed %d), want 0 (>= 8)", snap.PooledSessions, snap.SessionsTrimmed)
	}
	if snap.ArenaBytesFreed != base {
		t.Errorf("ArenaBytesFreed = %d, want %d", snap.ArenaBytesFreed, base)
	}

	// The deficit is heap no pass can touch: the trim still runs first,
	// then the bounded wait elapses into the typed error.
	g.forceReserve(base)
	fp.fill(base / 4)
	trimsBefore := fp.trimCount()
	start := time.Now()
	err := g.Admit(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Admit over untrimmable heap = %v, want ErrBudgetExceeded", err)
	}
	if d := time.Since(start); d < budgetAdmitWait {
		t.Errorf("typed refusal after %v, before the %v bound", d, budgetAdmitWait)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("retained after typed failure = %d, want 0", got)
	}
	if fp.trimCount() == trimsBefore {
		t.Error("typed failure without a preceding trim")
	}
	if rej := g.Counters().Rejected; rej != 1 {
		t.Errorf("Rejected = %d, want 1", rej)
	}
}

// TestGovernorSnapshotAccounting pins the per-consumer byte split the
// /stats Governor section publishes: heap, arena retention, and the
// reported-not-governed session-pinned bytes.
func TestGovernorSnapshotAccounting(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	populateBlocks(t, h, 2)
	fp := &fakePool{retained: 3 << 10}
	g.RegisterPool("fake", fp)

	// Park a session that owns allocation blocks so the pool pins bytes.
	s, err := h.m.LeaseSession()
	if err != nil {
		t.Fatal(err)
	}
	h.add(t, s, 424242, "pinned")
	h.m.ReturnSession(s)

	snap := g.Snapshot()
	if snap.HeapUsed != h.m.Governor().Used() {
		t.Errorf("HeapUsed = %d, want %d", snap.HeapUsed, h.m.Governor().Used())
	}
	if snap.ArenaRetained != 3<<10 {
		t.Errorf("ArenaRetained = %d, want %d", snap.ArenaRetained, 3<<10)
	}
	if snap.GovernedUsed != snap.HeapUsed+snap.ArenaRetained+snap.SynopsisBytes {
		t.Errorf("GovernedUsed = %d, want sum of consumer terms", snap.GovernedUsed)
	}
	if snap.PooledSessions < 1 {
		t.Errorf("PooledSessions = %d, want >= 1", snap.PooledSessions)
	}
	if snap.SessionPinnedBytes < int64(h.m.cfg.BlockSize) {
		t.Errorf("SessionPinnedBytes = %d, want >= one block", snap.SessionPinnedBytes)
	}
	if snap.GovernedUsed < snap.SessionPinnedBytes+snap.ArenaRetained {
		t.Error("session-pinned bytes double counted outside the heap term")
	}
}

// sumIDsWith is sumIDs on a caller-supplied coordinator session, so the
// storm can run scans concurrently (sessions are single-owner).
func sumIDsWith(h *harness, cctx context.Context, s *Session, workers int) (int64, error) {
	var total atomic.Int64
	err := h.ctx.ScanParallelPredCtx(cctx, s, workers, nil, func(_ int, _ *Session, b *Block) error {
		var local int64
		for slot := 0; slot < b.capacity; slot++ {
			if b.SlotIsValid(slot) {
				local += *(*int64)(b.FieldPtr(slot, h.idF))
			}
		}
		total.Add(local)
		return nil
	})
	return total.Load(), err
}

// churnAdd is h.add without the t.Fatal: the storm tolerates typed
// budget rejections on its churn path.
func churnAdd(h *harness, s *Session, id int64) (types.Ref, error) {
	r, obj, err := h.ctx.Alloc(s)
	if err != nil {
		return types.Ref{}, err
	}
	*(*int64)(obj.Blk.FieldPtr(obj.Slot, h.idF)) = id
	h.ctx.Publish(s, obj)
	return r, nil
}

// TestGovernorStormLeakFree is the 1000-cycle budget storm: racing
// parallel scans, object churn, session-pool pumps, a 1ms Maintainer
// compacting, and periodic admissions pushed over the limit by idle
// arena slack, which the reclaim pass must release before the
// admission returns — all under -race. Afterwards every ledger balances
// and surviving sums equal the serial oracle.
func TestGovernorStormLeakFree(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	_, want := populateBlocks(t, h, 4)

	// The limit starts at four times the loaded heap. Each parked churn
	// session owns an allocation block whose objects it removed again,
	// so the pool alone can pin the heap up to the limit. A reclaim pass
	// closes the parked sessions: each abandoned block goes back on the
	// reclaim queue, or, with no live object and few dead ones, to the
	// Maintainer's next pass, which buries it for the graveyard to
	// release two epochs later. Most over-limit admissions are rescued
	// that way within budgetAdmitWait; the rest are refused typed, and
	// a churn allocation that finds the heap at the limit waits
	// budgetAllocWait and is admitted or refused typed. The waits are
	// counted and logged below.
	heap := g.Used()
	limit := 4 * heap
	fp := &fakePool{retained: heap}
	g.RegisterPool("storm", fp)
	g.SetLimit(limit)

	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	defer mt.Stop()

	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	admissions, rescued := 0, 0
	for i := 0; i < cycles; i++ {
		if i%7 == 0 {
			fp.fill(heap) // queries keep parking arenas back
		}
		if i%31 == 0 {
			pumpSessionPool(t, h.m, 20)
		}
		if i%97 == 50 {
			// Idle slack puts the governed total over the limit: the
			// pass must release it before the admission returns, which
			// is admitted or refused typed, never anything else.
			fp.fill(limit)
			admissions++
			err := g.Admit(context.Background())
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("cycle %d: over-limit admission: %v", i, err)
			}
			if err == nil {
				rescued++
			}
			if got := fp.RetainedBytes(); got != 0 {
				t.Fatalf("cycle %d: admission returned with %d idle arena bytes", i, got)
			}
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := h.m.LeaseSession()
			if err != nil {
				return
			}
			defer h.m.ReturnSession(s)
			var refs []types.Ref
			for k := 0; k < 4; k++ {
				r, err := churnAdd(h, s, int64(1_000_000+i*8+k))
				if err != nil {
					if !errors.Is(err, ErrBudgetExceeded) {
						t.Errorf("cycle %d: churn alloc: %v", i, err)
					}
					break
				}
				refs = append(refs, r)
			}
			for _, r := range refs {
				if err := h.remove(s, r); err != nil {
					t.Errorf("cycle %d: churn remove: %v", i, err)
				}
			}
		}(i)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := h.m.LeaseSession()
				if err != nil {
					t.Errorf("cycle %d: scan lease: %v", i, err)
					return
				}
				defer h.m.ReturnSession(s)
				if _, err := sumIDsWith(h, context.Background(), s, 2); err != nil {
					t.Errorf("cycle %d: scan: %v", i, err)
				}
			}()
		}
		wg.Wait()

		if i%50 == 0 {
			serial, err := sumIDs(h, context.Background(), 1)
			if err != nil {
				t.Fatalf("cycle %d: serial oracle: %v", i, err)
			}
			par, err := sumIDs(h, context.Background(), 4)
			if err != nil {
				t.Fatalf("cycle %d: parallel sum: %v", i, err)
			}
			if serial != want || par != want {
				t.Fatalf("cycle %d: sums diverged: serial %d parallel %d want %d", i, serial, par, want)
			}
		}
	}

	mt.Stop()
	assertScanQuiesced(t, h)

	// Byte ledger: every allocated-but-unreleased block is charged, every
	// released block refunded — graveyard blocks count on both sides.
	st := h.m.Stats()
	live := (st.BlocksAllocated.Load() - st.BlocksReleased.Load()) * int64(h.m.cfg.BlockSize)
	if used := g.Used(); used != live {
		t.Errorf("budget ledger unbalanced: used %d, live block bytes %d", used, live)
	}
	if got := fp.RetainedBytes(); got < 0 || got > limit {
		t.Errorf("arena ledger unbalanced: retained %d, most ever parked %d", got, limit)
	}

	serial, err := sumIDs(h, context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sumIDs(h, context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial != want || par != want {
		t.Fatalf("surviving sums diverged: serial %d parallel %d want %d", serial, par, want)
	}

	c := g.Counters()
	snap := g.Snapshot()
	t.Logf("%d cycles: heap %d of limit %d bytes; %d of %d over-limit admissions rescued; %d allocations waited on the budget, %d refused; %v waiting in all",
		cycles, g.Used(), limit, rescued, admissions, c.AllocWaits, c.AllocRejects, time.Duration(c.ReclamationWaitNanos))
	if snap.ArenaBytesFreed == 0 || snap.SessionsTrimmed == 0 {
		t.Errorf("reclaim passes freed %d arena bytes and closed %d sessions, want both > 0", snap.ArenaBytesFreed, snap.SessionsTrimmed)
	}
}
