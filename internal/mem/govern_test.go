package mem

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/types"
)

// Governor suites: pressure classification, the degradation ladder's
// shrink-before-fail ordering, reclaim-rate-derived Retry-After clamps,
// rebalance fault isolation, and the 1000-cycle pressure storm.

// fakePool is a GovernedPool whose retained footprint the test sets
// directly, which a real region.ArenaPool does not allow: a mutable
// retained footprint behind a mutex, with fill() standing in for
// queries parking arenas back into the idle set. The core suite drives
// a real pool through core.RegisterArenaPool.
type fakePool struct {
	mu       sync.Mutex
	retained int64
	bound    int64
	trims    int64
}

func (p *fakePool) RetainedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

func (p *fakePool) RetainBound() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bound
}

func (p *fakePool) SetRetainBound(bound int64) {
	p.mu.Lock()
	p.bound = bound
	p.mu.Unlock()
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

// fill parks bytes back into the idle set, respecting the current bound
// exactly like ArenaPool.Return does.
func (p *fakePool) fill(target int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if target > p.bound {
		target = p.bound
	}
	if target > p.retained {
		p.retained = target
	}
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

// TestGovernorPressureLevels pins the Healthy/Tight/Critical thresholds
// against the governed total and counts transitions (each one fires the
// PointGovernPressure injection point).
func TestGovernorPressureLevels(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	defer fault.Enable(map[string]*fault.Rule{
		fault.PointGovernPressure: {At: 1 << 40}, // never fires, counts hits
	})()

	if lvl := g.Level(); lvl != Healthy {
		t.Fatalf("unlimited budget level = %v, want healthy", lvl)
	}
	const limit = 1 << 20
	b.SetLimit(limit)
	if lvl := g.Level(); lvl != Healthy {
		t.Fatalf("empty heap level = %v, want healthy", lvl)
	}
	b.forceReserve(limit * 80 / 100)
	if lvl := g.Level(); lvl != Tight {
		t.Fatalf("at 0.80 level = %v, want tight", lvl)
	}
	b.forceReserve(limit * 15 / 100)
	if lvl := g.Level(); lvl != Critical {
		t.Fatalf("at 0.95 level = %v, want critical", lvl)
	}
	b.release(limit * 95 / 100)
	if lvl := g.Level(); lvl != Healthy {
		t.Fatalf("after release level = %v, want healthy", lvl)
	}
	if n := g.Snapshot().Transitions; n < 3 {
		t.Errorf("transitions = %d, want >= 3", n)
	}
	if n := fault.Hits(fault.PointGovernPressure); n < 3 {
		t.Errorf("PointGovernPressure hits = %d, want >= 3", n)
	}
}

// TestGovernorLadderShrinkRestore walks the ladder both ways: Critical
// zeroes arena retention and drains the session pool, Tight halves the
// bound and keeps a reduced session pool, and a Healthy rebalance
// restores registered base bounds.
func TestGovernorLadderShrinkRestore(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	const base = 1 << 20
	fp := &fakePool{bound: base, retained: base}
	g.RegisterPool("fake", fp)
	pumpSessionPool(t, h.m, 24)

	// Critical: governed (all arena) == limit.
	b.SetLimit(base)
	if err := g.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := fp.RetainBound(); got != 0 {
		t.Errorf("critical retain bound = %d, want 0", got)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("critical retained = %d, want 0", got)
	}
	if n, _ := h.m.sessionPoolFootprint(); n != 0 {
		t.Errorf("critical pooled sessions = %d, want 0", n)
	}
	snap := g.Snapshot()
	if snap.ArenaBytesFreed != base {
		t.Errorf("ArenaBytesFreed = %d, want %d", snap.ArenaBytesFreed, base)
	}
	if snap.SessionsTrimmed < 24 {
		t.Errorf("SessionsTrimmed = %d, want >= 24", snap.SessionsTrimmed)
	}

	// Pressure cleared: the next rebalance restores base bounds.
	if err := g.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := fp.RetainBound(); got != base {
		t.Errorf("restored retain bound = %d, want %d", got, base)
	}
	if n := g.Snapshot().Restores; n != 1 {
		t.Errorf("Restores = %d, want 1", n)
	}

	// Tight: governed at exactly 0.75 of the limit halves the bound and
	// keeps a reduced session pool.
	fp.fill(base)
	b.SetLimit(base * 4 / 3)
	pumpSessionPool(t, h.m, 24)
	if err := g.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := fp.RetainBound(); got != base/2 {
		t.Errorf("tight retain bound = %d, want %d", got, base/2)
	}
	if got := fp.RetainedBytes(); got != base/2 {
		t.Errorf("tight retained = %d, want %d", got, base/2)
	}
	if n, _ := h.m.sessionPoolFootprint(); n != governTightSessions {
		t.Errorf("tight pooled sessions = %d, want %d", n, governTightSessions)
	}
}

// TestGovernorAdmitShrinksBeforeFail is the acceptance-gate ordering: an
// admission over the governed limit must first shrink arena retention
// (and succeed when that clears the deficit), and when the deficit is in
// untrimmable heap the failure is typed — with the trims having run
// before it.
func TestGovernorAdmitShrinksBeforeFail(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	const base = 1 << 20
	fp := &fakePool{bound: base, retained: base}
	g.RegisterPool("fake", fp)
	b.SetLimit(base / 2)

	// Deficit is all trimmable slack: Admit must rebalance it away and
	// succeed instead of rejecting.
	if err := b.Admit(context.Background()); err != nil {
		t.Fatalf("Admit with trimmable slack failed: %v", err)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("retained after admit = %d, want 0 (ladder must have trimmed)", got)
	}
	if fp.trimCount() == 0 {
		t.Error("pool never trimmed — admission succeeded without the ladder")
	}

	// Deficit is heap the ladder cannot touch: the trims still run first,
	// then the bounded wait elapses into the typed error.
	b.forceReserve(base)
	fp.SetRetainBound(base)
	fp.fill(base / 4)
	trimsBefore := fp.trimCount()
	err := b.Admit(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Admit over untrimmable heap = %v, want ErrBudgetExceeded", err)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("retained after typed failure = %d, want 0", got)
	}
	if fp.trimCount() == trimsBefore {
		t.Error("typed failure without a preceding trim — ladder ordering broken")
	}
	if rej := b.Counters().Rejected; rej == 0 {
		t.Error("typed admission failure not counted")
	}
}

// TestGovernorAdmitWaitScales pins the pressure-derived admission queue
// bounds: flat while Healthy, stretched 2x/4x under Tight/Critical.
func TestGovernorAdmitWaitScales(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	if got := g.AdmitWait(); got != budgetAdmitWait {
		t.Errorf("healthy AdmitWait = %v, want %v", got, budgetAdmitWait)
	}
	const limit = 1 << 20
	b.SetLimit(limit)
	b.forceReserve(limit * 80 / 100)
	g.Level()
	if got := g.AdmitWait(); got != 2*budgetAdmitWait {
		t.Errorf("tight AdmitWait = %v, want %v", got, 2*budgetAdmitWait)
	}
	b.forceReserve(limit * 15 / 100)
	g.Level()
	if got := g.AdmitWait(); got != 4*budgetAdmitWait {
		t.Errorf("critical AdmitWait = %v, want %v", got, 4*budgetAdmitWait)
	}
}

// TestGovernorRetryAfterClamps pins the Retry-After derivation: minimum
// when unlimited or not over budget, maximum when the reclaim path is
// stalled, deficit/rate in between, clamped to [1s, 30s].
func TestGovernorRetryAfterClamps(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()

	if got := g.RetryAfter(); got != minRetryAfter {
		t.Errorf("unlimited RetryAfter = %v, want %v", got, minRetryAfter)
	}
	const limit = 1 << 20
	b.SetLimit(limit)
	if got := g.RetryAfter(); got != minRetryAfter {
		t.Errorf("under-budget RetryAfter = %v, want %v", got, minRetryAfter)
	}

	// Over budget with no measured reclaim: the stalled path earns max.
	b.forceReserve(2 * limit)
	if got := g.RetryAfter(); got != maxRetryAfter {
		t.Errorf("zero-rate RetryAfter = %v, want %v", got, maxRetryAfter)
	}

	// Seed the estimator directly (same package): deficit is limit bytes.
	seed := func(rate float64) {
		g.rateMu.Lock()
		g.rateBytesS = rate
		g.rateNanos = time.Now().UnixNano()
		g.rateBase = g.released.Load()
		g.rateMu.Unlock()
	}
	deficit := float64(limit)
	seed(deficit / 5) // 5s to drain
	if got := g.RetryAfter(); got < 4*time.Second || got > 7*time.Second {
		t.Errorf("mid-rate RetryAfter = %v, want ~5s", got)
	}
	seed(deficit * 100) // drains in 10ms: clamp up to min
	if got := g.RetryAfter(); got != minRetryAfter {
		t.Errorf("fast-rate RetryAfter = %v, want %v", got, minRetryAfter)
	}
	seed(1) // 1 byte/s: clamp down to max
	if got := g.RetryAfter(); got != maxRetryAfter {
		t.Errorf("slow-rate RetryAfter = %v, want %v", got, maxRetryAfter)
	}
}

// TestGovernorRebalanceFaultAborts pins the injection contract: a
// PointGovernRebalance Err rule aborts the pass before it touches any
// consumer — counted, state untouched, next pass succeeds.
func TestGovernorRebalanceFaultAborts(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	const base = 1 << 20
	fp := &fakePool{bound: base, retained: base}
	g.RegisterPool("fake", fp)
	b.SetLimit(base / 2)

	boom := errors.New("injected rebalance failure")
	disarm := fault.Enable(map[string]*fault.Rule{
		fault.PointGovernRebalance: {Err: boom}, // At 0: every hit
	})
	if err := g.Rebalance(); !errors.Is(err, boom) {
		t.Fatalf("Rebalance under injection = %v, want %v", err, boom)
	}
	if got := fp.RetainedBytes(); got != base {
		t.Errorf("aborted pass touched the pool: retained = %d, want %d", got, base)
	}
	if got := fp.RetainBound(); got != base {
		t.Errorf("aborted pass touched the bound: %d, want %d", got, base)
	}
	snap := g.Snapshot()
	if snap.RebalanceFails == 0 {
		t.Error("aborted pass not counted in RebalanceFails")
	}
	if snap.Rebalances != 0 {
		t.Errorf("aborted pass counted as completed: Rebalances = %d", snap.Rebalances)
	}
	disarm()

	// The next pressure signal retries and completes the trim.
	if err := g.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := fp.RetainedBytes(); got != 0 {
		t.Errorf("post-injection rebalance retained = %d, want 0", got)
	}
}

// TestGovernorSnapshotAccounting pins the per-consumer byte split the
// /stats Governor section publishes: heap, arena retention, and the
// reported-not-governed session-pinned bytes.
func TestGovernorSnapshotAccounting(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	populateBlocks(t, h, 2)
	fp := &fakePool{bound: 1 << 20, retained: 3 << 10}
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
	if snap.Level != "healthy" {
		t.Errorf("Level = %q, want healthy (unlimited)", snap.Level)
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

// TestGovernorStormLeakFree is the 1000-cycle pressure storm: a budget
// held in the Tight band by refilled arena slack, racing parallel scans,
// object churn, session-pool pump/trim cycles, a 1ms Maintainer driving
// rebalances, periodic over-limit admissions that must be rescued by the
// ladder, and injected rebalance failures — all under -race. Afterwards
// every ledger balances and surviving sums equal the serial oracle.
func TestGovernorStormLeakFree(t *testing.T) {
	h := newHarness(t, RowIndirect, Config{BlockSize: 1 << 13, HeapBackend: true})
	g := h.m.Governor()
	b := h.m.Governor()
	_, want := populateBlocks(t, h, 4)

	heap := b.Used()
	base := 4 * heap
	fp := &fakePool{bound: base, retained: heap}
	g.RegisterPool("storm", fp)
	// Limit: heap + retained lands exactly on the Tight threshold, with
	// heap itself far below the limit so churn allocations never stall.
	limit := (heap + heap) * 4 / 3
	b.SetLimit(limit)

	mt := h.m.StartMaintainer(MaintainerConfig{Interval: time.Millisecond})
	defer mt.Stop()

	boom := errors.New("injected storm rebalance failure")
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	for i := 0; i < cycles; i++ {
		if i%7 == 0 {
			fp.fill(heap) // queries keep parking arenas back
		}
		if i%31 == 0 {
			pumpSessionPool(t, h.m, 20) // grow the pool past the Tight keep
		}
		armed := i%97 == 13
		if armed {
			fault.Enable(map[string]*fault.Rule{
				fault.PointGovernRebalance: {Err: boom}, // every hit while armed
			})
			// Force at least one aborted pass per armed window (a racing
			// maintainer pass may hold the single-flight gate briefly).
			for try := 0; try < 100; try++ {
				if err := g.Rebalance(); errors.Is(err, boom) {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		if i%97 == 50 {
			// Push the governed total over the limit with trimmable slack:
			// the admission must be rescued by the ladder, never 500.
			fp.SetRetainBound(base)
			fp.fill(3 * heap)
			if err := b.Admit(context.Background()); err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("cycle %d: over-limit admission: %v", i, err)
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
		if armed {
			fault.Disarm()
		}

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
	fault.Disarm()
	assertScanQuiesced(t, h)

	// Byte ledger: every allocated-but-unreleased block is charged, every
	// released block refunded — graveyard blocks count on both sides.
	st := h.m.Stats()
	live := (st.BlocksAllocated.Load() - st.BlocksReleased.Load()) * int64(h.m.cfg.BlockSize)
	if used := b.Used(); used != live {
		t.Errorf("budget ledger unbalanced: used %d, live block bytes %d", used, live)
	}
	if got := fp.RetainedBytes(); got < 0 || got > fp.RetainBound() {
		t.Errorf("arena ledger unbalanced: retained %d, bound %d", got, fp.RetainBound())
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

	snap := g.Snapshot()
	if snap.Rebalances == 0 {
		t.Error("storm never rebalanced")
	}
	if snap.RebalanceFails == 0 {
		t.Error("injected rebalance failures never fired")
	}
	if snap.Transitions == 0 {
		t.Error("storm never transitioned pressure levels")
	}
	// Whether the racy storm itself trimmed or restored is timing (the
	// ladder steps are asserted exactly by TestGovernorLadderShrinkRestore);
	// what must hold however it ended: with the limit lifted, one driven
	// rebalance unwinds whatever degradation is left.
	b.SetLimit(0)
	if err := g.Rebalance(); err != nil {
		t.Fatalf("post-storm rebalance: %v", err)
	}
	if got := fp.RetainBound(); got != base {
		t.Errorf("post-storm retain bound = %d, want base %d", got, base)
	}
	if lvl := g.Level(); lvl != Healthy {
		t.Errorf("post-storm level = %v, want healthy", lvl)
	}
	_ = fmt.Sprintf("%+v", snap) // snapshot stays printable under -race
}
