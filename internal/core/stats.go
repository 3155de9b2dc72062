package core

// Production observability for the query-memory subsystem: the runtime
// aggregates its memory manager's counters with the lease/retained-
// footprint metrics of every arena pool registered with the memory
// governor into one snapshot, so a serving process can export a single
// stats struct instead of crawling per-query-object pools.

import "repro/internal/mem"

// ServeCounters is the admission-control activity of a serving front
// door (internal/serve implements it; the interface keeps core free of
// an HTTP dependency). The serve layer bounds concurrent query
// execution with its own gate so a request storm cannot pile goroutines
// onto the session pool — these counters are how that gate shows up in
// the one stats snapshot a process exports.
type ServeCounters struct {
	// Requests counts query requests that reached admission; Admitted is
	// how many passed the gate, Saturated how many were turned away with
	// typed backpressure (HTTP 429) after the bounded admission wait.
	Requests, Admitted, Saturated int64
	// Canceled counts admitted requests whose context was canceled (client
	// gone or per-request deadline) before the query finished.
	Canceled int64
	// AdmitWaitNanos is cumulative time requests spent blocked at the
	// admission gate (both eventually-admitted and saturated).
	AdmitWaitNanos int64
	// InFlight is the number of requests currently holding an admission
	// slot; 0 when the server is idle (a stuck slot is a leak).
	InFlight int64
}

// ServeMetrics is the surface a front door registers with the runtime.
type ServeMetrics interface {
	ServeCounters() ServeCounters
}

// RuntimeStats is a point-in-time snapshot of the runtime's query-memory
// counters.
type RuntimeStats struct {
	// Worker-session pooling (parallel scans): lifetime session leases,
	// how many were pool hits (misses registered a fresh session), and
	// how many were returned. Leased == Returned whenever no scan is in
	// flight — leak detection after cancellation and fault injection.
	SessionsLeased, SessionsReused, SessionsReturned int64
	// EpochPins counts sessions currently inside an epoch critical
	// section; 0 when the system is quiesced (a leaked pin blocks
	// reclamation forever).
	EpochPins int
	// Admission control (query.NewCtx) and memory backpressure: queries
	// admitted and rejected under the budget, block allocations that
	// waited for reclamation or failed with ErrBudgetExceeded, and
	// cumulative nanoseconds spent waiting.
	QueriesAdmitted, QueriesRejected int64
	AllocWaits, AllocRejects         int64
	BudgetWaitNanos                  int64
	// BudgetLimit/BudgetUsed are the configured byte budget (0 =
	// unlimited) and the bytes currently charged against it.
	BudgetLimit, BudgetUsed int64
	// Block registry churn.
	BlocksAllocated, BlocksReleased int64
	// Compaction engine activity: passes run, objects relocated, groups
	// whose moving phase completed, groups abandoned (pinned past the
	// timeout or lost at an epoch wait), reader-helped moves and reader
	// bail-outs, block bytes reclaimed, and cumulative pass wall time.
	Compactions, ObjectsMoved    int64
	GroupsMoved, GroupsAborted   int64
	RelocHelped, RelocBailouts   int64
	BytesReclaimed, CompactNanos int64
	// Block-synopsis skip-scan layer: blocks skipped by a constrained
	// scan's min/max bounds check, blocks constrained scans actually
	// visited, and compaction targets whose bounds were rebuilt exactly.
	BlocksPruned, BlocksScanned int64
	SynopsisRebuilds            int64
	// Cross-edge semi-join pruning (mem.KeySetPredicate): blocks pruned
	// because no range of a pipeline stage's key set overlapped their
	// synopsis bounds (a subset of BlocksPruned), and blocks admitted
	// with at least one overlapping key-set constraint.
	KeySetPruned, SynopsisOverlap int64
	// SharedPasses, AttachedQueries and CatchUpBlocks are never written
	// (always 0): cooperative scan sharing was deleted, and the fields
	// exist only because benchmark/layers.go still reads them. They go
	// when a benchmark-archetype PR retires the mem.share_* metrics.
	SharedPasses, AttachedQueries int64
	CatchUpBlocks                 int64
	// Governor is the memory-budget section: per-consumer byte
	// accounting against the one budget and what its reclaim passes
	// gave back (mem.Governor).
	Governor mem.GovernorSnapshot
	// Serve is the registered front door's admission activity (zero when
	// no server is registered).
	Serve ServeCounters
	// Per-registered-pool arena lease metrics, in registration order.
	ArenaPools []mem.ArenaPoolStats
}

// ArenaLeases sums lease counts across all registered pools.
func (s *RuntimeStats) ArenaLeases() int64 {
	var n int64
	for _, p := range s.ArenaPools {
		n += p.Leases
	}
	return n
}

// ArenaRetainedBytes sums the idle footprint across all registered
// pools.
func (s *RuntimeStats) ArenaRetainedBytes() int64 {
	var n int64
	for _, p := range s.ArenaPools {
		n += p.RetainedBytes
	}
	return n
}

// RegisterArenaPool registers a pool with the memory governor, the one
// registry of arena pools. Query objects register the pools they lease
// intermediates from at construction. A registered pool's metrics
// appear in StatsSnapshot, its retained footprint counts against the
// governed total, and its idle arenas are released whenever a query
// admission or block reservation finds the budget exceeded.
func (rt *Runtime) RegisterArenaPool(name string, p mem.GovernedPool) {
	rt.mgr.Governor().RegisterPool(name, p)
}

// RegisterServer points the runtime's stats surface at a serving front
// door's admission counters. At most one server registers per runtime
// (a second registration replaces the first).
func (rt *Runtime) RegisterServer(m ServeMetrics) {
	rt.mu.Lock()
	rt.server = m
	rt.mu.Unlock()
}

// StatsSnapshot captures the runtime's query-memory counters: the
// memory manager's session-pool hit/miss and block/compaction counters
// plus every registered arena pool's lease and retained-footprint
// metrics and the registered front door's admission activity.
func (rt *Runtime) StatsSnapshot() RuntimeStats {
	ms := rt.mgr.Stats()
	g := rt.mgr.Governor()
	bc := g.Counters()
	out := RuntimeStats{
		SessionsLeased:   ms.SessionsLeased.Load(),
		SessionsReused:   ms.SessionsReused.Load(),
		SessionsReturned: ms.SessionsReturned.Load(),
		EpochPins:        rt.mgr.Epoch().InCriticalSessions(),

		QueriesAdmitted: bc.Admitted,
		QueriesRejected: bc.Rejected,
		AllocWaits:      bc.AllocWaits,
		AllocRejects:    bc.AllocRejects,
		BudgetWaitNanos: bc.ReclamationWaitNanos,
		BudgetLimit:     bc.Limit,
		BudgetUsed:      bc.Used,

		BlocksAllocated: ms.BlocksAllocated.Load(),
		BlocksReleased:  ms.BlocksReleased.Load(),
		Compactions:     ms.Compactions.Load(),
		ObjectsMoved:    ms.ObjectsMoved.Load(),
		GroupsMoved:     ms.GroupsMoved.Load(),
		GroupsAborted:   ms.GroupsAborted.Load(),
		RelocHelped:     ms.RelocHelped.Load(),
		RelocBailouts:   ms.RelocBailouts.Load(),
		BytesReclaimed:  ms.BytesReclaimed.Load(),
		CompactNanos:    ms.CompactNanos.Load(),

		BlocksPruned:     ms.BlocksPruned.Load(),
		BlocksScanned:    ms.BlocksScanned.Load(),
		SynopsisRebuilds: ms.SynopsisRebuilds.Load(),
		KeySetPruned:     ms.KeySetPruned.Load(),
		SynopsisOverlap:  ms.SynopsisOverlap.Load(),

		Governor:   g.Snapshot(),
		ArenaPools: g.ArenaPools(),
	}
	rt.mu.Lock()
	server := rt.server
	rt.mu.Unlock()
	if server != nil {
		out.Serve = server.ServeCounters()
	}
	return out
}
