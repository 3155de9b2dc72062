// Package core implements self-managed collections (SMCs), the paper's
// primary contribution: a collection type whose objects live in private
// off-heap memory excluded from garbage collection, owned by the
// collection itself (§2, §4).
//
// Semantics (§2):
//
//   - Objects are created by Add and destroyed by Remove; the collection
//     determines object lifetime ("object containment is inspired by
//     database tables").
//   - After Remove, every reference to the object implicitly becomes
//     null; dereferencing yields ErrNullReference.
//   - Enumeration has bag semantics and proceeds in memory order over
//     the collection's private blocks, which is what gives compiled
//     queries their locality (§4).
//   - Element types must be *tabular*: fixed-size fields, strings (owned
//     by the object) and references to other collections only. The check
//     runs at collection construction via internal/schema.
//
// Three storage layouts mirror the paper: the indirect baseline (§3),
// direct pointers between collections (§6), and columnar storage (§4.1).
//
// The manual memory manager underneath is internal/mem; sessions and
// critical sections come from internal/epoch via mem.Session.
package core

import (
	"reflect"
	"sync"

	"repro/internal/mem"
	"repro/internal/types"
)

// ErrNullReference is re-exported for callers of Get/Remove/Deref.
var ErrNullReference = mem.ErrNullReference

// Runtime owns the memory manager shared by a set of collections: the
// indirection table, epoch machinery, block registry and compactor. It
// stands in for the paper's modified managed runtime (§2: "our collection
// types require a deeper integration with the managed runtime").
type Runtime struct {
	mgr *mem.Manager

	mu      sync.Mutex
	colls   []namedColl
	server  ServeMetrics  // front-door admission counters (stats.go)
	pending []*refBinding // ref fields awaiting their target collection
}

type namedColl struct {
	name string
	ctx  *mem.Context
}

// Options configures a Runtime; zero values select the defaults
// documented on mem.Config.
type Options struct {
	// BlockSize is the memory-block size (power of two, default 256 KiB).
	BlockSize int
	// ReclaimThreshold is the limbo fraction that queues a block for
	// reclamation (default 5%, the paper's choice after Figure 6).
	ReclaimThreshold float64
	// CompactionThreshold is the occupancy below which blocks join
	// compaction groups (default 30%, §5.2).
	CompactionThreshold float64
	// CompactionPacking selects how compaction candidates are binned
	// into groups: PackSize (default, first-fit decreasing) or PackCluster
	// (synopsis-clustered compaction; pair with
	// Collection.RegisterClusterKey).
	CompactionPacking mem.PackingMode
	// MemoryBudget caps the runtime's governed bytes (0 = unlimited):
	// block reservations are held to it by heap bytes, query admission
	// (query.NewCtx) by the governed total of heap, idle arenas and
	// synopses. Over the cap, one reclaim pass runs (Maintainer wake,
	// graveyard drain, idle arenas and parked sessions released), then a
	// bounded wait, then mem.ErrBudgetExceeded.
	MemoryBudget int64
	// HeapBackend forces the portable off-heap backend (tests).
	HeapBackend bool
}

// NewRuntime creates a runtime.
func NewRuntime(opts Options) (*Runtime, error) {
	mgr, err := mem.NewManager(mem.Config{
		BlockSize:           opts.BlockSize,
		ReclaimThreshold:    opts.ReclaimThreshold,
		CompactionThreshold: opts.CompactionThreshold,
		CompactionPacking:   opts.CompactionPacking,
		MemoryBudget:        opts.MemoryBudget,
		HeapBackend:         opts.HeapBackend,
	})
	if err != nil {
		return nil, err
	}
	return &Runtime{mgr: mgr}, nil
}

// MustRuntime is NewRuntime, panicking on error.
func MustRuntime(opts Options) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// Manager exposes the underlying memory manager (benchmark harnesses and
// compiled query code use it for low-level access).
func (rt *Runtime) Manager() *mem.Manager { return rt.mgr }

// NewSession registers a session. Every goroutine touching collections
// needs its own session; sessions carry the thread-local allocation state
// and the epoch critical-section bookkeeping (§3.4–3.5).
func (rt *Runtime) NewSession() (*Session, error) {
	ms, err := rt.mgr.NewSession()
	if err != nil {
		return nil, err
	}
	return &Session{ms: ms}, nil
}

// LeaseSession returns a session from the manager's idle pool (or
// registers a fresh one when the pool is empty). Pair with
// ReturnSession. A request handler serving thousands of short queries
// leases instead of registering — session slots are a fixed global
// resource, and the pool's hit counters make per-request session churn
// observable in StatsSnapshot.
func (rt *Runtime) LeaseSession() (*Session, error) {
	ms, err := rt.mgr.LeaseSession()
	if err != nil {
		return nil, err
	}
	return &Session{ms: ms}, nil
}

// ReturnSession parks a leased session for reuse. The session must not
// be inside a critical section.
func (rt *Runtime) ReturnSession(s *Session) {
	if s == nil {
		return
	}
	rt.mgr.ReturnSession(s.ms)
}

// MustSession is NewSession, panicking on error.
func (rt *Runtime) MustSession() *Session {
	s, err := rt.NewSession()
	if err != nil {
		panic(err)
	}
	return s
}

// CompactNow synchronously runs one compaction pass (§5) with
// GOMAXPROCS move-phase workers.
func (rt *Runtime) CompactNow() (moved int, err error) { return rt.mgr.CompactNow() }

// CompactNowWorkers runs one compaction pass with an explicit move-phase
// worker count (<= 0 selects GOMAXPROCS; 1 is the serial oracle path).
func (rt *Runtime) CompactNowWorkers(workers int) (moved int, err error) {
	return rt.mgr.CompactNowWorkers(workers)
}

// StartMaintainer launches the runtime's background thread: it watches
// occupancy/fragmentation and triggers parallel compaction passes, and
// runs the §3.1 overflow rescue once incarnation numbers overflow (see
// mem.Manager.StartMaintainer).
func (rt *Runtime) StartMaintainer(cfg mem.MaintainerConfig) *mem.Maintainer {
	return rt.mgr.StartMaintainer(cfg)
}

// SetMemoryBudget adjusts the runtime's off-heap byte budget (0 =
// unlimited). Lowering it below current usage does not evict memory; it
// backpressures future allocations and admissions until reclamation
// catches up.
func (rt *Runtime) SetMemoryBudget(limit int64) { rt.mgr.Governor().SetLimit(limit) }

// FragmentationSnapshot surveys the heap's compactable blocks.
func (rt *Runtime) FragmentationSnapshot() mem.Fragmentation {
	return rt.mgr.FragmentationSnapshot()
}

// Close releases all off-heap memory owned by the runtime.
func (rt *Runtime) Close() error { return rt.mgr.Close() }

// Session wraps a mem.Session. Critical sections (grace periods) group
// object accesses so their epoch overhead is amortized (§3.4, §4).
type Session struct {
	ms *mem.Session
}

// Enter begins (or nests) a critical section.
func (s *Session) Enter() { s.ms.Enter() }

// Exit leaves the critical section.
func (s *Session) Exit() { s.ms.Exit() }

// Refresh re-publishes the session's epoch mid-enumeration.
func (s *Session) Refresh() { s.ms.Refresh() }

// Close unregisters the session.
func (s *Session) Close() error { return s.ms.Close() }

// Mem exposes the underlying mem.Session for compiled query code.
func (s *Session) Mem() *mem.Session { return s.ms }

// Ref is a typed reference to an object in a Collection[T]. Its zero
// value is the null reference. Refs stay valid across relocations
// (compaction) and become null when the object is removed.
type Ref[T any] struct {
	R types.Ref
}

// RefTargetType implements types.RefTyped so the schema layer can
// discover the referent type of Ref fields inside tabular structs.
func (Ref[T]) RefTargetType() reflect.Type {
	var zero T
	return reflect.TypeOf(zero)
}

// IsNil reports whether the reference is null.
func (r Ref[T]) IsNil() bool { return r.R.IsNil() }

// Layout selects a collection's storage layout.
type Layout = mem.Layout

// Storage layout re-exports.
const (
	RowIndirect = mem.RowIndirect
	RowDirect   = mem.RowDirect
	Columnar    = mem.Columnar
)

// PackingMode selects a runtime's compaction-group packing policy.
type PackingMode = mem.PackingMode

// Compaction packing-mode re-exports (Options.CompactionPacking).
const (
	PackSize    = mem.PackSize
	PackCluster = mem.PackCluster
)
