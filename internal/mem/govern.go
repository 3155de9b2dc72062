package mem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Memory governance: admission control, backpressure and adaptive
// rebalancing under one byte budget per Manager. The heap used to grow
// until the OS killed the process; the Governor turns memory into a
// governed resource — degrade, then refuse, never OOM.
//
// The process has four memory consumers — the block heap, every
// registered arena pool's retained idle set, the parked worker-session
// pool (whose sessions pin allocation blocks against compaction), and
// the per-block synopses. A static split between them loses as soon as
// the workload shifts, so the Governor accounts all four against the one
// limit and, under rising pressure, walks a degradation ladder that
// gives bytes back before any admission fails:
//
//  1. Shrink arena-pool retention: every registered pool's retain bound
//     is lowered (half at Tight, zero at Critical) and already-parked
//     arenas are trimmed immediately.
//  2. Trim the idle session pool: parked sessions are closed, which
//     abandons their allocation blocks — turning pinned slack into
//     compaction candidates.
//  3. Wake the Maintainer for a compaction-for-reclamation pass.
//  4. Queue admissions (Governor.Admit) and block allocations with
//     bounded waits; the admission bound is pressure-derived.
//  5. Only when all of that cannot bring the governed total under the
//     limit does an admission or allocation fail with the typed
//     ErrBudgetExceeded.
//
// When pressure clears the ladder unwinds: bounds are restored to their
// registered bases and the pools refill on demand. Every transition is
// observable — the pressure level (Healthy/Tight/Critical) and the
// per-consumer byte accounting surface through Snapshot into
// core.RuntimeStats, and the serve layer derives Retry-After from the
// governor's measured reclaim rate.
//
// The session pool's pinned bytes are reported but not added to the
// governed total: its allocation blocks are already charged to the
// block-heap ledger, and double counting would manufacture pressure.

// ErrBudgetExceeded is returned when an allocation or query admission
// cannot proceed within the manager's memory budget and reclamation
// could not free enough within the bounded wait. It is a typed, permanent
// answer for this attempt — callers may retry after load drops.
var ErrBudgetExceeded = errors.New("mem: memory budget exceeded")

// PressureLevel classifies how close the governed total is to the
// limit: Healthy below governTightFrac, Tight from there, Critical from
// governCriticalFrac. An unlimited budget is always Healthy.
type PressureLevel int32

// Pressure levels, in escalation order.
const (
	Healthy PressureLevel = iota
	Tight
	Critical
)

// String names the level for /stats and test labels.
func (l PressureLevel) String() string {
	switch l {
	case Healthy:
		return "healthy"
	case Tight:
		return "tight"
	case Critical:
		return "critical"
	}
	return "unknown"
}

const (
	// governTightFrac / governCriticalFrac are the governed-total
	// fractions of the limit at which pressure escalates.
	governTightFrac    = 0.75
	governCriticalFrac = 0.90

	// governTightSessions is how many parked sessions survive a Tight
	// trim (Critical drains the pool entirely).
	governTightSessions = maxPooledSessions / 4

	// Retry-After clamps: the deficit/reclaim-rate estimate is advisory,
	// so it must never tell a client "now" while over budget nor banish
	// it for minutes.
	minRetryAfter = 1 * time.Second
	maxRetryAfter = 30 * time.Second

	// governRateSample is the minimum interval between reclaim-rate
	// samples folded into the EWMA.
	governRateSample = 50 * time.Millisecond

	// budgetAllocWait bounds how long one block allocation backpressures
	// before returning ErrBudgetExceeded. Reclamation that can help (the
	// maintainer pass plus graveyard ripening) completes well inside this
	// on any healthy heap.
	budgetAllocWait = 100 * time.Millisecond

	// budgetAdmitWait bounds how long Admit backpressures while Healthy
	// when the caller's context carries no deadline of its own.
	budgetAdmitWait = 250 * time.Millisecond
)

// GovernedPool is the surface an arena pool exposes to the governor:
// retain-bound control for the ladder and lease metrics for
// core.RuntimeStats. region.ArenaPool implements it.
type GovernedPool interface {
	// RetainedBytes reports the idle footprint currently parked.
	RetainedBytes() int64
	// RetainBound reports the current retained-footprint bound.
	RetainBound() int64
	// SetRetainBound replaces the bound (gates future returns).
	SetRetainBound(int64)
	// TrimTo releases parked arenas down to target bytes, returning the
	// bytes freed.
	TrimTo(target int64) int64
	// Stats reports lifetime lease and reuse counts.
	Stats() (leases, reuses int64)
	// Returns reports lifetime Return counts.
	Returns() int64
}

// governedPool is one registered pool plus the base bound restored when
// pressure clears.
type governedPool struct {
	name string
	pool GovernedPool
	base int64
}

// Governor is a Manager's memory budget and its adaptive control loop;
// see the package-level comment above. Always non-nil (Manager.Governor).
// The zero limit means "unlimited": accounting still runs (Used stays
// accurate) but nothing waits or fails, and the ladder stays idle. All
// methods are safe for concurrent use.
type Governor struct {
	m *Manager

	limit atomic.Int64 // bytes; 0 = unlimited
	used  atomic.Int64 // block bytes currently reserved

	// gen is a broadcast channel replaced (and the old one closed) on
	// every release, limit change and arena trim, so waiters can block on
	// "something changed" without a lock-held condition variable.
	genMu sync.Mutex
	gen   chan struct{}

	poolMu sync.Mutex
	pools  []governedPool

	level    atomic.Int32 // PressureLevel last published
	degraded atomic.Bool  // ladder engaged; bounds below base
	inflight atomic.Bool  // single-flight rebalance gate

	// Reclaim-rate estimator: lifetime bytes given back (block releases
	// plus governor arena trims), sampled into an EWMA of bytes/second.
	released   atomic.Int64
	rateMu     sync.Mutex
	rateNanos  int64
	rateBase   int64
	rateBytesS float64

	// Admission and backpressure counters.
	admitted     atomic.Int64 // query admissions allowed
	rejected     atomic.Int64 // query admissions refused (budget, not ctx)
	allocWaits   atomic.Int64 // block allocations that had to wait
	allocRejects atomic.Int64 // block allocations refused
	waitNanos    atomic.Int64 // cumulative reclamation-wait time

	// Ladder counters.
	rebalances     atomic.Int64
	rebalanceFails atomic.Int64
	restores       atomic.Int64
	transitions    atomic.Int64
	arenaFreed     atomic.Int64
	sessTrimmed    atomic.Int64
}

func newGovernor(m *Manager, limit int64) *Governor {
	g := &Governor{m: m, gen: make(chan struct{})}
	g.limit.Store(limit) // NewManager rejects a negative MemoryBudget
	return g
}

// Governor returns the manager's memory governor (unlimited unless
// Config.MemoryBudget or SetLimit set a cap).
func (m *Manager) Governor() *Governor { return m.governor }

// SetLimit replaces the byte limit; 0 disables enforcement. Lowering the
// limit below current use does not evict anything — it backpressures
// future allocations and admissions until reclamation catches up. Every
// change wakes the waiters, so lifting the limit releases them at once.
func (g *Governor) SetLimit(limit int64) {
	g.limit.Store(max(limit, 0))
	g.broadcast()
}

// Limit returns the configured byte limit (0 = unlimited).
func (g *Governor) Limit() int64 { return g.limit.Load() }

// Used returns the block bytes currently reserved against the budget.
func (g *Governor) Used() int64 { return g.used.Load() }

// RegisterPool adds an arena pool to the governed set, recording its
// current retain bound as the base restored when pressure clears.
// Registration is append-only: pools live as long as their query
// objects, which live as long as the runtime in practice.
func (g *Governor) RegisterPool(name string, p GovernedPool) {
	g.poolMu.Lock()
	g.pools = append(g.pools, governedPool{name: name, pool: p, base: p.RetainBound()})
	g.poolMu.Unlock()
}

// snapshotPools copies the registered set.
func (g *Governor) snapshotPools() []governedPool {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	out := make([]governedPool, len(g.pools))
	copy(out, g.pools)
	return out
}

// ArenaPoolStats is one registered pool's point-in-time metrics.
type ArenaPoolStats struct {
	// Name identifies the pool (e.g. "tpch.SMCQueries").
	Name string
	// Leases counts lifetime Lease calls; Reuses counts how many of them
	// were served from the idle set rather than a fresh arena.
	Leases, Reuses int64
	// Returns counts lifetime Return calls. Leases == Returns whenever no
	// query holds a leased arena — the robustness suites assert this
	// after cancel/fault cycles.
	Returns int64
	// RetainedBytes is the idle footprint currently held for reuse.
	RetainedBytes int64
}

// ArenaPools reports every registered pool's metrics, in registration
// order.
func (g *Governor) ArenaPools() []ArenaPoolStats {
	pools := g.snapshotPools()
	out := make([]ArenaPoolStats, 0, len(pools))
	for _, gp := range pools {
		leases, reuses := gp.pool.Stats()
		out = append(out, ArenaPoolStats{
			Name:          gp.name,
			Leases:        leases,
			Reuses:        reuses,
			Returns:       gp.pool.Returns(),
			RetainedBytes: gp.pool.RetainedBytes(),
		})
	}
	return out
}

// ArenaRetained sums the registered pools' parked footprints.
func (g *Governor) ArenaRetained() int64 {
	var n int64
	for _, gp := range g.snapshotPools() {
		n += gp.pool.RetainedBytes()
	}
	return n
}

// GovernedUsed is the byte total the governor holds against the limit:
// block heap + arena retention + synopses. Session-pinned blocks are
// inside the heap term already (see the package comment).
func (g *Governor) GovernedUsed() int64 {
	return g.Used() + g.ArenaRetained() + g.m.synopsisFootprint()
}

// overGoverned reports whether the governed total has reached the
// limit. Admission gates on this wider total so that shrinking retained
// pools genuinely relieves admission pressure: a budget sized below
// heap+slack rebalances the slack away instead of rejecting queries
// forever.
func (g *Governor) overGoverned() bool {
	l := g.limit.Load()
	return l > 0 && (g.used.Load() >= l || g.GovernedUsed() >= l)
}

// waitChan returns the current broadcast generation.
func (g *Governor) waitChan() <-chan struct{} {
	g.genMu.Lock()
	ch := g.gen
	g.genMu.Unlock()
	return ch
}

// broadcast wakes every waiter to re-check the budget.
func (g *Governor) broadcast() {
	g.genMu.Lock()
	close(g.gen)
	g.gen = make(chan struct{})
	g.genMu.Unlock()
}

// tryReserve reserves n bytes iff they fit under the limit. Block
// reservations stay heap-vs-limit; only admission sees the governed
// total.
func (g *Governor) tryReserve(n int64) bool {
	l := g.limit.Load()
	if l <= 0 {
		g.used.Add(n)
		return true
	}
	for {
		u := g.used.Load()
		if u+n > l {
			return false
		}
		if g.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// forceReserve reserves n bytes even past the limit. Compaction targets
// use it: a target block is the reclamation vehicle itself (it frees at
// least two source blocks), so refusing it under pressure would deadlock
// the budget against its own remedy.
func (g *Governor) forceReserve(n int64) { g.used.Add(n) }

// release returns n bytes to the budget, feeds the reclaim-rate
// estimator, and wakes waiters.
func (g *Governor) release(n int64) {
	g.used.Add(-n)
	g.released.Add(n)
	if g.limit.Load() > 0 {
		g.broadcast()
	}
}

// reclaim nudges every reclamation path that can run off the allocator's
// foot: wake the Maintainer for a compaction-for-reclamation pass, try a
// lazy epoch advance, drain ripe graves now, and run the rebalance
// ladder (arena-retention and session-pool trims) — so the cheaper
// consumers shrink before any admission fails.
func (g *Governor) reclaim() {
	g.m.signalAllocPressure()
	g.m.TryAdvanceEpoch()
	g.m.drainGraveyard()
	_ = g.Rebalance()
}

// reserveBlock reserves one block's bytes for allocation, applying the
// pressure protocol on failure: trigger reclamation, then backpressure
// (bounded) for released bytes, and only then fail with
// ErrBudgetExceeded.
func (g *Governor) reserveBlock(n int64) error {
	if g.tryReserve(n) {
		return nil
	}
	g.allocWaits.Add(1)
	start := time.Now()
	defer func() { g.waitNanos.Add(time.Since(start).Nanoseconds()) }()
	deadline := time.NewTimer(budgetAllocWait)
	defer deadline.Stop()
	for {
		ch := g.waitChan()
		g.reclaim()
		if g.tryReserve(n) {
			return nil
		}
		select {
		case <-ch:
			// Bytes were released (or the limit moved): retry.
		case <-deadline.C:
			g.allocRejects.Add(1)
			return ErrBudgetExceeded
		}
	}
}

// Admit gates one new query admission on the governed byte total (heap
// plus arena retention plus synopses — see overGoverned): free when
// under the limit, otherwise it triggers reclamation (including the
// rebalance ladder) and blocks — at most AdmitWait, or less when the
// context expires first — until the governed total drops under the
// limit. It returns ctx's error when the caller gave up first and
// ErrBudgetExceeded when the bounded wait elapsed, so an over-budget
// admission fails typed and promptly even under a long request deadline
// (the serve layer maps it to a retryable 503 with a reclaim-rate-derived
// Retry-After rather than queueing the request for its whole timeout);
// admission holds no resource, so there is nothing to release. The
// reclaim inside the wait loop runs before the bound can expire, so the
// ladder's trims always precede a typed admission failure.
func (g *Governor) Admit(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return err
	}
	if !g.overGoverned() {
		g.admitted.Add(1)
		return nil
	}
	start := time.Now()
	defer func() { g.waitNanos.Add(time.Since(start).Nanoseconds()) }()
	t := time.NewTimer(g.AdmitWait())
	defer t.Stop()
	for {
		ch := g.waitChan()
		g.reclaim()
		if !g.overGoverned() {
			g.admitted.Add(1)
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			g.rejected.Add(1)
			return context.Cause(ctx)
		case <-t.C:
			g.rejected.Add(1)
			return ErrBudgetExceeded
		}
	}
}

// AdmitWait is the pressure-derived bound on how long one admission may
// queue before failing typed: the flat default while Healthy, stretched
// under pressure so admissions queue through a reclamation cycle instead
// of failing into a retry storm.
func (g *Governor) AdmitWait() time.Duration {
	switch PressureLevel(g.level.Load()) {
	case Critical:
		return 4 * budgetAdmitWait
	case Tight:
		return 2 * budgetAdmitWait
	}
	return budgetAdmitWait
}

// GovernorCounters is a point-in-time view of the budget's admission
// and backpressure activity.
type GovernorCounters struct {
	Limit, Used              int64
	Admitted, Rejected       int64
	AllocWaits, AllocRejects int64
	ReclamationWaitNanos     int64
}

// Counters snapshots the admission/rejection/wait counters.
func (g *Governor) Counters() GovernorCounters {
	return GovernorCounters{
		Limit:                g.limit.Load(),
		Used:                 g.used.Load(),
		Admitted:             g.admitted.Load(),
		Rejected:             g.rejected.Load(),
		AllocWaits:           g.allocWaits.Load(),
		AllocRejects:         g.allocRejects.Load(),
		ReclamationWaitNanos: g.waitNanos.Load(),
	}
}

// computeLevel classifies the current governed total.
func (g *Governor) computeLevel() PressureLevel {
	l := g.Limit()
	if l <= 0 {
		return Healthy
	}
	u := float64(g.GovernedUsed())
	switch {
	case u >= governCriticalFrac*float64(l):
		return Critical
	case u >= governTightFrac*float64(l):
		return Tight
	}
	return Healthy
}

// refreshLevel recomputes and publishes the pressure level, counting
// transitions and firing the injection point on each.
func (g *Governor) refreshLevel() PressureLevel {
	lvl := g.computeLevel()
	if old := PressureLevel(g.level.Swap(int32(lvl))); old != lvl {
		g.transitions.Add(1)
		fault.Point(fault.PointGovernPressure)
	}
	return lvl
}

// Level recomputes and returns the current pressure level.
func (g *Governor) Level() PressureLevel { return g.refreshLevel() }

// reclaimRate returns the EWMA bytes/second the system has been giving
// back, folding in a fresh sample when enough time has passed.
func (g *Governor) reclaimRate() float64 {
	now := time.Now().UnixNano()
	total := g.released.Load()
	g.rateMu.Lock()
	defer g.rateMu.Unlock()
	if g.rateNanos == 0 {
		g.rateNanos, g.rateBase = now, total
		return g.rateBytesS
	}
	if dt := now - g.rateNanos; dt >= int64(governRateSample) {
		inst := float64(total-g.rateBase) / (float64(dt) / float64(time.Second))
		g.rateBytesS = 0.5*g.rateBytesS + 0.5*inst
		g.rateNanos, g.rateBase = now, total
	}
	return g.rateBytesS
}

// RetryAfter derives a client backoff from the governed deficit and the
// measured reclaim rate, clamped to [minRetryAfter, maxRetryAfter]: a
// deficit the system is draining fast earns a short retry, a stalled
// reclaim path earns the max.
func (g *Governor) RetryAfter() time.Duration {
	l := g.Limit()
	if l <= 0 {
		return minRetryAfter
	}
	deficit := g.GovernedUsed() - l
	if deficit <= 0 {
		return minRetryAfter
	}
	rate := g.reclaimRate()
	if rate <= 0 {
		return maxRetryAfter
	}
	d := time.Duration(float64(deficit) / rate * float64(time.Second))
	return min(max(d, minRetryAfter), maxRetryAfter)
}

// Rebalance runs one ladder pass: reclassify pressure, shrink or
// restore the governed consumers accordingly, and wake the Maintainer.
// Single-flight (concurrent callers return immediately) and cheap when
// Healthy and not degraded, so the reclaim path can call it on every
// pressure event. The fault.PointGovernRebalance Err rule aborts the
// pass before it touches any consumer — counted, retried on the next
// pressure signal, never inconsistent.
func (g *Governor) Rebalance() error {
	if !g.inflight.CompareAndSwap(false, true) {
		return nil
	}
	defer g.inflight.Store(false)
	if err := fault.Check(fault.PointGovernRebalance); err != nil {
		g.rebalanceFails.Add(1)
		return err
	}
	lvl := g.refreshLevel()
	g.rebalances.Add(1)
	var freed int64
	var trimmed int
	switch lvl {
	case Healthy:
		if g.degraded.CompareAndSwap(true, false) {
			for _, gp := range g.snapshotPools() {
				gp.pool.SetRetainBound(gp.base)
			}
			g.restores.Add(1)
		}
		return nil
	case Tight:
		freed = g.shrinkPools(2)
		trimmed = g.m.TrimSessionPool(governTightSessions)
	case Critical:
		freed = g.shrinkPools(0)
		trimmed = g.m.TrimSessionPool(0)
	}
	g.sessTrimmed.Add(int64(trimmed))
	g.degraded.Store(true)
	// Wake the Maintainer only when this pass actually gave something
	// back (trimmed sessions abandon blocks — new compaction candidates).
	// An unconditional wake here would self-perpetuate: the woken
	// maintainer's tick rebalances, which would wake it again, spinning
	// the maintenance loop for as long as pressure lasts.
	if freed > 0 || trimmed > 0 {
		g.m.signalAllocPressure()
	}
	if freed > 0 {
		g.arenaFreed.Add(freed)
		g.released.Add(freed)
		// The governed total just dropped without a block release;
		// admission waiters must re-check against the new total.
		g.broadcast()
	}
	return nil
}

// shrinkPools lowers every pool's retain bound to base/div (0 for
// div==0) and trims parked arenas down to it, returning bytes freed.
func (g *Governor) shrinkPools(div int64) int64 {
	var freed int64
	for _, gp := range g.snapshotPools() {
		target := int64(0)
		if div > 0 {
			target = gp.base / div
		}
		gp.pool.SetRetainBound(target)
		freed += gp.pool.TrimTo(target)
	}
	return freed
}

// tick is the Maintainer's periodic governance hook: reclassify, keep
// the ladder engaged while pressure lasts, and unwind it (restore pool
// bounds) once pressure clears — including after the limit itself was
// raised or removed.
func (g *Governor) tick() {
	if g.Limit() <= 0 {
		if g.degraded.Load() {
			_ = g.Rebalance()
		}
		return
	}
	if g.refreshLevel() != Healthy || g.degraded.Load() {
		_ = g.Rebalance()
	}
}

// GovernorSnapshot is a point-in-time view of the governed accounting,
// surfaced through core.RuntimeStats (the /stats Governor section).
type GovernorSnapshot struct {
	// Level is the pressure level ("healthy", "tight", "critical").
	Level string
	// Limit is the byte budget (0 = unlimited); GovernedUsed the total
	// held against it, split into the per-consumer terms below.
	Limit, GovernedUsed int64
	// HeapUsed is the block-heap reservation; ArenaRetained the parked
	// arena footprint across registered pools; SynopsisBytes the
	// per-block bounds estimate.
	HeapUsed, ArenaRetained, SynopsisBytes int64
	// PooledSessions / SessionPinnedBytes describe the idle session
	// pool: sessions parked, and the allocation-block bytes they pin
	// against compaction (reported, not double counted — those bytes are
	// inside HeapUsed).
	PooledSessions, SessionPinnedBytes int64
	// Ladder activity: rebalance passes run, passes aborted by fault
	// injection, restores after pressure cleared, observed level
	// transitions, arena bytes trimmed, and sessions closed by trims.
	Rebalances, RebalanceFails, Restores int64
	Transitions                          int64
	ArenaBytesFreed, SessionsTrimmed     int64
	// ReclaimBytesPerSec is the measured reclaim-rate EWMA behind
	// Retry-After.
	ReclaimBytesPerSec float64
}

// Snapshot captures the governor's accounting and counters, refreshing
// the pressure level as a side effect.
func (g *Governor) Snapshot() GovernorSnapshot {
	heap := g.Used()
	arena := g.ArenaRetained()
	syn := g.m.synopsisFootprint()
	sessions, pinned := g.m.sessionPoolFootprint()
	return GovernorSnapshot{
		Level:              g.refreshLevel().String(),
		Limit:              g.Limit(),
		GovernedUsed:       heap + arena + syn,
		HeapUsed:           heap,
		ArenaRetained:      arena,
		SynopsisBytes:      syn,
		PooledSessions:     int64(sessions),
		SessionPinnedBytes: pinned,
		Rebalances:         g.rebalances.Load(),
		RebalanceFails:     g.rebalanceFails.Load(),
		Restores:           g.restores.Load(),
		Transitions:        g.transitions.Load(),
		ArenaBytesFreed:    g.arenaFreed.Load(),
		SessionsTrimmed:    g.sessTrimmed.Load(),
		ReclaimBytesPerSec: g.reclaimRate(),
	}
}
