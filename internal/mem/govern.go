package mem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Memory governance: one byte budget per Manager, charged for query
// admission and block reservation. It is beyond the paper, whose memory
// manager has no budget; the heap used to grow until the OS killed the
// process, and the budget turns that into a typed refusal.
//
// The budget counts three consumers: the block heap, every registered
// arena pool's retained idle set, and the per-block synopses (their sum
// is GovernedUsed). Admission gates on that total; block reservation
// gates on the heap alone. A fourth consumer, the parked worker-session
// pool, is reported but not added: its pinned allocation blocks are
// already charged to the heap, and counting them twice would make
// pressure out of nothing.
//
// When a reservation or an admission finds the budget exceeded, one
// reclaim pass runs: wake the Maintainer, try an epoch advance, drain
// ripe graves, release every idle arena of every registered pool and
// close every parked session, abandoning its allocation blocks. Then
// the caller waits, bounded, for bytes to come back (each wake-up
// re-runs the pass and re-checks), and only after that fails with the
// typed ErrBudgetExceeded. The serve layer maps that error to a 503
// with a constant Retry-After. The pass is the whole remedy: on the
// served budget sweep (smcbench -fig govern) graded pressure levels put
// the refusal edge at the same step.

// ErrBudgetExceeded is returned when an allocation or query admission
// cannot proceed within the manager's memory budget and reclamation
// could not free enough within the bounded wait. It is a typed, permanent
// answer for this attempt — callers may retry after load drops.
var ErrBudgetExceeded = errors.New("mem: memory budget exceeded")

const (
	// budgetAllocWait bounds how long one block allocation backpressures
	// before returning ErrBudgetExceeded. Reclamation that can help (the
	// maintainer pass plus graveyard ripening) completes well inside this
	// on any healthy heap.
	budgetAllocWait = 100 * time.Millisecond

	// budgetAdmitWait bounds how long Admit backpressures when the
	// caller's context carries no earlier deadline of its own.
	budgetAdmitWait = 250 * time.Millisecond
)

// GovernedPool is the surface an arena pool exposes to the governor:
// its idle footprint and release for the budget, lease metrics for
// core.RuntimeStats. region.ArenaPool implements it.
type GovernedPool interface {
	// RetainedBytes reports the idle footprint currently parked.
	RetainedBytes() int64
	// TrimTo releases parked arenas down to target bytes, returning the
	// bytes freed.
	TrimTo(target int64) int64
	// Stats reports lifetime lease and reuse counts.
	Stats() (leases, reuses int64)
	// Returns reports lifetime Return counts.
	Returns() int64
}

// governedPool is one registered pool and the name /stats reports.
type governedPool struct {
	name string
	pool GovernedPool
}

// Governor is a Manager's memory budget; see the package-level comment
// above. Always non-nil (Manager.Governor). The zero limit means
// "unlimited": accounting still runs (Used stays accurate) but nothing
// waits, fails or is reclaimed. All methods are safe for concurrent use.
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

	// Admission and backpressure counters.
	admitted     atomic.Int64 // query admissions allowed
	rejected     atomic.Int64 // query admissions refused (budget, not ctx)
	allocWaits   atomic.Int64 // block allocations that had to wait
	allocRejects atomic.Int64 // block allocations refused
	waitNanos    atomic.Int64 // cumulative reclamation-wait time

	// What the reclaim passes gave back.
	arenaFreed  atomic.Int64
	sessTrimmed atomic.Int64
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

// RegisterPool adds an arena pool to the governed set. Registration is
// append-only: pools live as long as their query objects, which live as
// long as the runtime in practice.
func (g *Governor) RegisterPool(name string, p GovernedPool) {
	g.poolMu.Lock()
	g.pools = append(g.pools, governedPool{name: name, pool: p})
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
// limit. Admission gates on this wider total so that releasing idle
// arenas genuinely relieves admission pressure: a budget sized below
// heap+slack reclaims the slack instead of rejecting queries forever.
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

// release returns n bytes to the budget and wakes waiters.
func (g *Governor) release(n int64) {
	g.used.Add(-n)
	if g.limit.Load() > 0 {
		g.broadcast()
	}
}

// reclaim is the one remedy for an exceeded budget. It nudges every
// reclamation path that can run off the allocator's foot (a Maintainer
// pass for compaction, a lazy epoch advance, the ripe graves), then
// releases what nobody is using: every registered pool's idle arenas
// and every parked session. A closed session abandons its allocation
// blocks: each goes back on the reclaim queue, becomes a compaction
// candidate, or, emptied, is buried by the Maintainer's next pass and
// released two epochs later. A pool refills on demand once queries
// return arenas.
func (g *Governor) reclaim() {
	g.m.signalAllocPressure()
	g.m.TryAdvanceEpoch()
	g.m.drainGraveyard()
	var freed int64
	for _, gp := range g.snapshotPools() {
		freed += gp.pool.TrimTo(0)
	}
	g.sessTrimmed.Add(int64(g.m.trimSessionPool()))
	if freed > 0 {
		g.arenaFreed.Add(freed)
		// The governed total just dropped without a block release;
		// admission waiters must re-check against the new total.
		g.broadcast()
	}
}

// reserveBlock reserves one block's bytes for allocation. On failure it
// reclaims, backpressures (bounded by budgetAllocWait) for released
// bytes, and only then fails with ErrBudgetExceeded.
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
// under the limit, otherwise it reclaims and blocks — at most
// budgetAdmitWait, or less when the context expires first — until the
// governed total drops under the limit. It returns ctx's error when the
// caller gave up first and ErrBudgetExceeded when the bounded wait
// elapsed, so an over-budget admission fails typed and promptly even
// under a long request deadline (the serve layer maps it to a retryable
// 503 rather than queueing the request for its whole timeout);
// admission holds no resource, so there is nothing to release. The
// reclaim pass runs before the bound can expire, so idle arenas and
// parked sessions are always released before a typed refusal.
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
	t := time.NewTimer(budgetAdmitWait)
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

// GovernorSnapshot is a point-in-time view of the governed accounting,
// surfaced through core.RuntimeStats (the /stats Governor section).
type GovernorSnapshot struct {
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
	// What the reclaim passes gave back: arena bytes released and parked
	// sessions closed.
	ArenaBytesFreed, SessionsTrimmed int64
}

// Snapshot captures the governor's accounting and counters.
func (g *Governor) Snapshot() GovernorSnapshot {
	heap := g.Used()
	arena := g.ArenaRetained()
	syn := g.m.synopsisFootprint()
	sessions, pinned := g.m.sessionPoolFootprint()
	return GovernorSnapshot{
		Limit:              g.Limit(),
		GovernedUsed:       heap + arena + syn,
		HeapUsed:           heap,
		ArenaRetained:      arena,
		SynopsisBytes:      syn,
		PooledSessions:     int64(sessions),
		SessionPinnedBytes: pinned,
		ArenaBytesFreed:    g.arenaFreed.Load(),
		SessionsTrimmed:    g.sessTrimmed.Load(),
	}
}
