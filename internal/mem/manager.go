// Package mem implements the paper's type-safe manual memory management
// system (§3) and its extensions: single-type memory blocks with slot
// directories and back-pointers (§3.1–3.2), a global indirection table,
// memory contexts (§3.3), epoch-based reclamation with limbo slots and
// lazy epoch advancement (§3.4–3.5), online compaction with freezing and
// relocation epochs (§5), direct pointers with forwarding tombstones (§6)
// and columnar block layouts (§4.1).
//
// The package deals in raw memory slots; the typed collection API lives
// in internal/core, which marshals tabular Go structs in and out of slots
// using internal/schema layouts.
//
// # Safety model
//
// All object memory lives off-heap (internal/offheap): the Go garbage
// collector never scans, moves or frees it. Type safety is provided the
// paper's way: a reference names an indirection-table entry plus the
// incarnation number observed at creation; every dereference re-validates
// the incarnation, and a removed object's reference behaves as null.
// Thread safety is provided by epoch-based reclamation: dereferences
// happen inside critical sections (epoch.Session.Enter/Exit), and a freed
// slot is reused only after two epochs have passed.
//
// # Error model
//
// The package distinguishes three failure classes, each with a typed
// sentinel callers can test with errors.Is:
//
//   - Cancellation. Scans (ScanParallelPredCtx) accept a
//     context.Context observed at block-claim granularity: one atomic
//     load per claim, zero overhead for context.Background. A canceled
//     scan unwinds every worker, returns every pooled session and exits
//     every epoch critical section before reporting context.Cause(ctx);
//     partial results are discarded. Compaction observes a context at
//     group-claim granularity the same way internally; its public entry
//     points and the Maintainer run uncanceled, and Maintainer.Stop lets
//     an in-flight pass finish. The serial Enumerator is the
//     uncancellable oracle walk.
//
//   - Backpressure. ErrBudgetExceeded reports that the process-level
//     memory budget could not admit a query (Governor.Admit) or reserve
//     a block. Allocation failure is not immediate: the governor first
//     triggers reclamation (Maintainer wake-up, lazy epoch advance,
//     graveyard drain) and waits — bounded — for released bytes.
//     Compaction target blocks bypass admission (forceReserve) so the
//     budget can never starve its own remedy.
//
//   - Fault isolation. ErrWorkerPanic reports a panic recovered on a
//     worker goroutine (scan kernel, compaction move, maintenance
//     pass). Panics never cross goroutine boundaries unhandled: workers
//     recover, convert the panic to a query-scoped error carrying the
//     panic value, and unwind their session/epoch state. No query driver
//     retries on a serial path: the error reaches the caller. The
//     Maintainer recovers pass panics, counts them (Maintainer.Panics)
//     and keeps running. internal/fault provides the injection points
//     the -race robustness suites drive.
//
// Leak freedom after any of the three is observable: Stats
// SessionsLeased == SessionsReturned and epoch.Manager
// InCriticalSessions() == 0 whenever no operation is in flight.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/offheap"
	"repro/internal/schema"
)

// Layout selects how a context stores its objects (paper §3.2, §4.1, §6).
type Layout uint8

const (
	// RowIndirect is the baseline layout: row-major slots, incarnation
	// numbers in the indirection entry, all references indirect.
	RowIndirect Layout = iota
	// RowDirect stores the incarnation in an 8-byte slot header and
	// uses direct pointers for references between collections (§6).
	RowDirect
	// Columnar stores each field in a per-block column segment (§4.1);
	// the indirection entry holds (block id, slot) instead of a pointer.
	Columnar
)

// String names the layout for diagnostics and test labels.
func (l Layout) String() string {
	switch l {
	case RowIndirect:
		return "row-indirect"
	case RowDirect:
		return "row-direct"
	case Columnar:
		return "columnar"
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}

// PackingMode selects how planGroups bins compaction candidates into
// groups (one rebuilt target block per capacity's worth of surviving
// rows; exactly one outside PackCluster).
type PackingMode uint8

const (
	// PackSize is the default: size-sorted first-fit decreasing on valid
	// count. Targets pack fuller and fewer groups form for the same
	// reclaimable bytes, but each target mixes whatever key ranges its
	// sources happened to hold.
	PackSize PackingMode = iota
	// PackCluster bins candidates by their cluster-key synopsis range
	// (Context.RegisterClusterKey): candidates sort by key bounds and
	// pack key-adjacent into multi-target groups, and the moving phase
	// deals each group's rows, key-sorted, into consecutive targets —
	// one key-quantile slice per target. Rebuilt targets come out with
	// tight, near-disjoint bound ranges even from a fully scattered
	// heap, so churn-staled pruning recovers to a steady-state floor
	// instead of by accident. Candidacy is synopsis-aware under this
	// mode: full blocks whose bounds have gone stale-wide are rewritten
	// regardless of occupancy (see Manager.compactionCandidates), which
	// keeps the floor holding under balanced upsert churn that refills
	// reclaimed slots in place. Contexts without a registered cluster
	// key fall back to PackSize.
	PackCluster
)

// String names the packing mode for diagnostics and test labels.
func (p PackingMode) String() string {
	switch p {
	case PackSize:
		return "size"
	case PackCluster:
		return "cluster"
	}
	return fmt.Sprintf("PackingMode(%d)", uint8(p))
}

// Config tunes a Manager.
type Config struct {
	// BlockSize is the size of each memory block in bytes; must be a
	// power of two. Blocks are aligned to their size so a block header
	// can be recovered from any interior pointer by masking (§3.1).
	BlockSize int
	// ReclaimThreshold is the fraction of limbo slots above which a
	// block joins the reclamation queue (§3.5; the paper evaluates this
	// knob in Figure 6 and settles on 5%).
	ReclaimThreshold float64
	// CompactionThreshold is the occupancy below which a block may join
	// a compaction group (§5.2; the paper uses 30%).
	CompactionThreshold float64
	// CompactionPacking selects how compaction candidates are binned
	// into groups: PackSize (default) or PackCluster (synopsis-clustered;
	// see PackingMode).
	CompactionPacking PackingMode
	// HeapBackend forces the portable heap-slab off-heap backend.
	HeapBackend bool
	// MemoryBudget caps the manager's block-heap footprint in bytes
	// (0 = unlimited). When exceeded, allocations and new query
	// admissions backpressure through the reclamation machinery before
	// failing with ErrBudgetExceeded; see Governor.
	MemoryBudget int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BlockSize == 0 {
		out.BlockSize = 1 << 18 // 256 KiB
	}
	if out.ReclaimThreshold == 0 {
		out.ReclaimThreshold = 0.05
	}
	if out.CompactionThreshold == 0 {
		out.CompactionThreshold = 0.30
	}
	return out
}

// Manager owns the off-heap memory of a set of memory contexts, the
// indirection table, the epoch manager and the compactor.
type Manager struct {
	cfg   Config
	alloc *offheap.Allocator
	ep    *epoch.Manager
	table *indirectTable

	mu       sync.Mutex
	contexts []*Context
	closed   bool

	// blocks is the append-only block registry: block id -> *Block.
	// Readers load the slice atomically; growth copies under mu.
	blocks atomic.Pointer[[]*Block]

	// Compaction state shared with the dereference protocol (§5.1).
	relocEpoch  atomic.Uint64 // the paper's nextRelocationEpoch; 0 = none
	movingPhase atomic.Bool   // true while relocations may happen
	compactMu   sync.Mutex    // serializes whole compaction runs

	// graveyard holds emptied blocks until two epochs have passed and
	// any direct-pointer fix-ups have completed.
	graveMu   sync.Mutex
	graveyard []grave

	// retired holds indirection entries whose incarnation counter
	// overflowed (§3.1): they are out of circulation until the overflow
	// rescue scan has nulled all stale references to them.
	retiredMu      sync.Mutex
	retiredEntries []retiredEntry

	// sessPool parks idle worker sessions between parallel scans so a
	// small scan does not pay N session registrations (epoch slot churn,
	// cache map allocation) per invocation. Pooled sessions stay
	// registered; the pool is bounded and drained on Close, which sets
	// sessPoolOff so late returns close their session instead of parking.
	sessMu      sync.Mutex
	sessPool    []*Session
	sessPoolOff bool

	// maintWake, when non-nil, is the running Maintainer's allocation-
	// pressure wake-up registration: abandonAllocBlock signals it when a
	// context's compaction-candidate count crosses the maintainer's
	// threshold, so reclamation starts without waiting out a poll tick.
	maintWake atomic.Pointer[maintWakeReg]

	// governor holds the byte budget (admission control, allocation
	// backpressure) and the registered arena pools it reclaims from
	// when the budget is exceeded (govern.go); always non-nil,
	// unlimited by default.
	governor *Governor

	stats Stats
}

// maxPooledSessions bounds how many idle sessions a manager parks; epoch
// session slots are a fixed global resource (epoch.MaxSessions), so the
// pool must never hoard them.
const maxPooledSessions = 64

// retiredEntry records one overflowed indirection entry and the context
// whose object it last named (the rescue scan walks that context's
// in-edges).
type retiredEntry struct {
	e   entryRef
	ctx *Context
}

type grave struct {
	blk   *Block
	ready uint64
	// limbo lists the slots whose strings the drain frees (ownedLimbo).
	limbo []int32
}

// Stats aggregates manager-wide counters.
type Stats struct {
	Allocs          atomic.Int64
	Frees           atomic.Int64
	SlotsReclaimed  atomic.Int64
	BlocksAllocated atomic.Int64
	BlocksReleased  atomic.Int64
	EpochAdvances   atomic.Int64
	Compactions     atomic.Int64
	ObjectsMoved    atomic.Int64
	RelocBailouts   atomic.Int64
	RelocHelped     atomic.Int64

	// Parallel compaction engine: groups whose moving phase completed,
	// groups abandoned (pinned past the timeout or aborted at an epoch
	// wait), block bytes handed to the graveyard by compaction, and the
	// cumulative wall time of compaction passes.
	GroupsMoved    atomic.Int64
	GroupsAborted  atomic.Int64
	BytesReclaimed atomic.Int64
	CompactNanos   atomic.Int64

	// §3.1 overflow handling: resources taken out of circulation at
	// incarnation overflow and put back by the rescue scan.
	EntriesRetired atomic.Int64
	SlotsRetired   atomic.Int64
	EntriesRescued atomic.Int64
	SlotsRescued   atomic.Int64
	RefsNulled     atomic.Int64
	OverflowScans  atomic.Int64

	// Worker-session pooling (parallel scans). Leased == Returned when
	// no query holds a session — the robustness suites assert this
	// balance after cancellation and fault-injection cycles.
	SessionsLeased   atomic.Int64
	SessionsReused   atomic.Int64
	SessionsReturned atomic.Int64

	// Block synopses / predicate pushdown (synopsis.go): blocks skipped
	// by a constrained scan's min/max check, blocks a constrained scan
	// actually visited, and compaction targets whose bounds were rebuilt
	// exactly by the moving phase.
	BlocksPruned     atomic.Int64
	BlocksScanned    atomic.Int64
	SynopsisRebuilds atomic.Int64

	// Cross-edge semi-join pruning (KeySetPredicate): blocks pruned
	// because no key-set range survived inside their bounds (a subset of
	// BlocksPruned), and admitted blocks whose bounds a key-set
	// constraint did overlap — the residual work the key set could not
	// remove. KeySetPruned / (KeySetPruned + SynopsisOverlap) is the
	// cross-edge pruning rate of a key-set-constrained scan.
	KeySetPruned    atomic.Int64
	SynopsisOverlap atomic.Int64
}

// NewManager builds a Manager from the configuration.
func NewManager(cfg Config) (*Manager, error) {
	c := cfg.withDefaults()
	if c.BlockSize&(c.BlockSize-1) != 0 || c.BlockSize < 1<<12 {
		return nil, fmt.Errorf("mem: block size %d must be a power of two >= 4096", c.BlockSize)
	}
	if c.ReclaimThreshold <= 0 || c.ReclaimThreshold >= 1 {
		return nil, fmt.Errorf("mem: reclaim threshold %v out of (0,1)", c.ReclaimThreshold)
	}
	if c.CompactionThreshold <= 0 || c.CompactionThreshold >= 1 {
		return nil, fmt.Errorf("mem: compaction threshold %v out of (0,1)", c.CompactionThreshold)
	}
	var opts []offheap.Option
	if c.HeapBackend {
		opts = append(opts, offheap.WithHeapBackend())
	}
	if c.MemoryBudget < 0 {
		return nil, fmt.Errorf("mem: memory budget %d must be >= 0", c.MemoryBudget)
	}
	m := &Manager{
		cfg:   c,
		alloc: offheap.New(opts...),
		ep:    epoch.NewManager(),
	}
	m.governor = newGovernor(m, c.MemoryBudget)
	empty := make([]*Block, 0)
	m.blocks.Store(&empty)
	t, err := newIndirectTable(m.alloc)
	if err != nil {
		return nil, err
	}
	m.table = t
	return m, nil
}

// Epoch returns the manager's epoch manager.
func (m *Manager) Epoch() *epoch.Manager { return m.ep }

// Stats returns the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// BlockSize returns the configured block size.
func (m *Manager) BlockSize() int { return m.cfg.BlockSize }

// OffheapStats exposes the off-heap allocator's accounting.
func (m *Manager) OffheapStats() *offheap.Stats { return m.alloc.Stats() }

// NewContext creates a memory context (§3.3) holding objects of the given
// schema in the given layout. The name is used in diagnostics.
func (m *Manager) NewContext(name string, sch *schema.Schema, layout Layout) (*Context, error) {
	if sch == nil {
		return nil, fmt.Errorf("mem: nil schema")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("mem: manager closed")
	}
	ctx, err := newContext(m, uint32(len(m.contexts)), name, sch, layout)
	if err != nil {
		return nil, err
	}
	m.contexts = append(m.contexts, ctx)
	return ctx, nil
}

// Contexts returns a snapshot of all contexts.
func (m *Manager) Contexts() []*Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Context, len(m.contexts))
	copy(out, m.contexts)
	return out
}

// registerBlock assigns an id to a new block and publishes it.
func (m *Manager) registerBlock(b *Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.blocks.Load()
	id := uint32(len(cur))
	b.id = id
	next := make([]*Block, len(cur)+1)
	copy(next, cur)
	next[id] = b
	m.blocks.Store(&next)
	m.stats.BlocksAllocated.Add(1)
}

// blockByID resolves a block id from the registry; nil for released ids.
func (m *Manager) blockByID(id uint32) *Block {
	cur := *m.blocks.Load()
	if int(id) >= len(cur) {
		return nil
	}
	return cur[id]
}

// unregisterBlock clears the registry entry (the id is not reused; stale
// masked lookups on a released block would read freed memory anyway, and
// the graveyard delay guarantees no reader can still do so).
func (m *Manager) unregisterBlock(b *Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.blocks.Load()
	if int(b.id) < len(cur) && cur[b.id] == b {
		next := make([]*Block, len(cur))
		copy(next, cur)
		next[b.id] = nil
		m.blocks.Store(&next)
	}
}

// TryAdvanceEpoch attempts one lazy epoch advance (the paper performs
// this inside the allocation function, §3.5).
func (m *Manager) TryAdvanceEpoch() bool {
	if _, ok := m.ep.TryAdvance(); ok {
		m.stats.EpochAdvances.Add(1)
		m.drainGraveyard()
		return true
	}
	return false
}

// burialEpoch computes when a block buried now may be freed.
func (m *Manager) burialEpoch() uint64 { return m.ep.Global() + 2 }

func (m *Manager) bury(b *Block, limbo []int32) {
	m.graveMu.Lock()
	m.graveyard = append(m.graveyard, grave{blk: b, ready: m.burialEpoch(), limbo: limbo})
	m.graveMu.Unlock()
}

// drainGraveyard frees buried blocks whose grace period has fully passed.
func (m *Manager) drainGraveyard() {
	g := m.ep.Global()
	m.graveMu.Lock()
	var keep, free []grave
	for _, gr := range m.graveyard {
		if gr.ready <= g {
			free = append(free, gr)
		} else {
			keep = append(keep, gr)
		}
	}
	m.graveyard = keep
	m.graveMu.Unlock()
	for _, gr := range free {
		// Every removal in the block predates its burial, so the grace
		// period that ripened the grave ripened each slot too.
		for _, slot := range gr.limbo {
			gr.blk.ctx.freeSlotStrings(gr.blk, int(slot))
		}
		m.unregisterBlock(gr.blk)
		m.releaseBlockMemory(gr.blk)
	}
}

func (m *Manager) releaseBlockMemory(b *Block) {
	if b.region != nil && b.region.Valid() {
		_ = m.alloc.Free(b.region)
		m.stats.BlocksReleased.Add(1)
		m.governor.release(int64(m.cfg.BlockSize))
	}
}

// Close releases all off-heap memory. No sessions may be active.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("mem: already closed")
	}
	m.closed = true
	ctxs := make([]*Context, len(m.contexts))
	copy(ctxs, m.contexts)
	m.mu.Unlock()

	// Drain the worker-session pool while the contexts and indirection
	// table are still alive (Session.Close returns caches to them).
	m.sessMu.Lock()
	pooled := m.sessPool
	m.sessPool = nil
	m.sessPoolOff = true
	m.sessMu.Unlock()
	for _, s := range pooled {
		_ = s.Close()
	}

	m.graveMu.Lock()
	graves := m.graveyard
	m.graveyard = nil
	m.graveMu.Unlock()
	for _, gr := range graves {
		m.releaseBlockMemory(gr.blk)
	}
	for _, ctx := range ctxs {
		ctx.releaseAll()
	}
	m.table.release()
	return nil
}

// Session is a registered participant: it carries the epoch session, the
// per-session ("thread-local", §3.5) allocation blocks, and caches of
// indirection entries and string chunks.
type Session struct {
	mgr *Manager
	ep  *epoch.Session

	allocBlocks map[uint32]*Block // context id -> current allocation block
	entryCache  []entryRef        // cached ripe indirection entries
	strChunks   map[uint32]*strChunk
}

// NewSession registers a session. Sessions must be used by one goroutine
// at a time and closed when done.
func (m *Manager) NewSession() (*Session, error) {
	es, err := m.ep.NewSession()
	if err != nil {
		return nil, err
	}
	return &Session{
		mgr:         m,
		ep:          es,
		allocBlocks: make(map[uint32]*Block),
		strChunks:   make(map[uint32]*strChunk),
	}, nil
}

// LeaseSession returns a parked idle session, or registers a fresh one
// when the pool is empty. Pair it with ReturnSession; a leased session
// has the exact same contract as one from NewSession (single goroutine,
// not in a critical section).
func (m *Manager) LeaseSession() (*Session, error) {
	m.sessMu.Lock()
	if n := len(m.sessPool); n > 0 {
		s := m.sessPool[n-1]
		m.sessPool = m.sessPool[:n-1]
		m.sessMu.Unlock()
		m.stats.SessionsLeased.Add(1)
		m.stats.SessionsReused.Add(1)
		return s, nil
	}
	m.sessMu.Unlock()
	s, err := m.NewSession()
	if err != nil {
		return nil, err
	}
	m.stats.SessionsLeased.Add(1)
	return s, nil
}

// ReturnSession parks a session for the next LeaseSession; if the pool is
// full (or the manager closed), the session is closed instead. The
// session must not be inside a critical section.
func (m *Manager) ReturnSession(s *Session) {
	if s == nil {
		return
	}
	m.stats.SessionsReturned.Add(1)
	m.sessMu.Lock()
	if !m.sessPoolOff && len(m.sessPool) < maxPooledSessions {
		m.sessPool = append(m.sessPool, s)
		m.sessMu.Unlock()
		return
	}
	m.sessMu.Unlock()
	_ = s.Close()
}

// trimSessionPool closes every parked idle session, returning how many
// were closed. Closing a parked session abandons its allocation blocks
// (abandonAllocBlock routes each to reuse, compaction or burial) — the
// governor's reclaim pass uses this when the budget is exceeded.
func (m *Manager) trimSessionPool() int {
	m.sessMu.Lock()
	drain := m.sessPool
	m.sessPool = nil
	m.sessMu.Unlock()
	for _, s := range drain {
		_ = s.Close()
	}
	return len(drain)
}

// sessionPoolFootprint reports how many sessions are parked idle and the
// allocation-block bytes they pin against compaction. Parked sessions
// are unowned, so reading their alloc maps under sessMu is race-free
// (lease/return transfer ownership under the same lock).
func (m *Manager) sessionPoolFootprint() (sessions int, pinnedBytes int64) {
	m.sessMu.Lock()
	defer m.sessMu.Unlock()
	for _, s := range m.sessPool {
		for _, b := range s.allocBlocks {
			if b != nil {
				pinnedBytes += int64(m.cfg.BlockSize)
			}
		}
	}
	return len(m.sessPool), pinnedBytes
}

// Close unregisters the session, returning its caches to global pools.
func (s *Session) Close() error {
	for ctxID, b := range s.allocBlocks {
		if b != nil {
			s.abandonAllocBlock(ctxID, b)
		}
	}
	s.mgr.table.releaseCache(s.entryCache)
	s.entryCache = nil
	return s.ep.Close()
}

// Enter begins a critical section (grace period, §3.4).
func (s *Session) Enter() { s.ep.Enter() }

// Exit ends the critical section.
func (s *Session) Exit() { s.ep.Exit() }

// Refresh re-publishes the current global epoch mid-enumeration.
func (s *Session) Refresh() { s.ep.Refresh() }

// InCritical reports whether the session is inside a critical section.
func (s *Session) InCritical() bool { return s.ep.InCritical() }

// EpochSession exposes the underlying epoch session.
func (s *Session) EpochSession() *epoch.Session { return s.ep }

// Manager returns the manager this session is registered with; the query
// layer uses it to reach the memory governor for admission control.
func (s *Session) Manager() *Manager { return s.mgr }
