// Package epoch implements the epoch-based memory reclamation scheme of
// the paper (§3.4): a continuously increasing global epoch, per-thread
// (here: per-session) critical sections, and the invariant that every
// thread inside a critical section is either in the global epoch e or in
// e-1. Memory freed in epoch e may be reclaimed in epoch e+2, because by
// then no thread can still be inside a grace period that observed e.
//
// Go does not expose OS-thread identity, so the paper's
// sectionCtx[threadId] array becomes explicit Session handles that callers
// register and pin to one goroutine at a time. This mirrors the paper's
// structure exactly; the "threadId" is the session slot index.
//
// Unlike classic three-state epoch schemes [Fraser], and following the
// paper, the epoch is a continuous counter, and advancing it is lazy: the
// memory manager attempts an advance inside its allocation function when
// reclaimable blocks are waiting, and the compaction thread owns an
// advance gate while a compaction is in flight.
package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxSessions is the number of concurrently registered sessions supported
// by one Manager. Sessions are cheap slots in a fixed array so that the
// advance scan touches a predictable, bounded amount of memory (one
// cache line per slot, 64KiB total). The bound it must cover is the
// front door's: serve.Config.MaxConcurrent admitted queries, each
// holding its request session plus one pooled session per scan worker,
// whose count the workers knob caps at GOMAXPROCS (MaxConcurrent ×
// (1 + GOMAXPROCS)), plus the manager's idle session pool and the
// Maintainer's sessions.
const MaxSessions = 1024

// cacheLine padding avoids false sharing between session slots on the
// advance-scan path.
const cacheLine = 64

type sessionSlot struct {
	epoch      atomic.Uint64
	inCritical atomic.Uint32
	registered atomic.Uint32
	_          [cacheLine - 20]byte
}

// Manager tracks the global epoch and all registered sessions.
type Manager struct {
	global atomic.Uint64
	// gate holds 1+ownerID while a compaction owns epoch advancement;
	// 0 when advancement is open to everyone (paper §5.1: "no other but
	// the compaction thread can increment the global epoch until the
	// compaction is finished").
	gate atomic.Int64

	mu    sync.Mutex
	slots [MaxSessions]sessionSlot
	free  []int
	inUse int
}

// NewManager returns a Manager with the global epoch at 0.
func NewManager() *Manager {
	m := &Manager{}
	m.free = make([]int, 0, MaxSessions)
	for i := MaxSessions - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

// Global returns the current global epoch.
func (m *Manager) Global() uint64 { return m.global.Load() }

// Sessions returns the number of registered sessions.
func (m *Manager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// Session is a registered participant in epoch tracking. A Session must
// be used by at most one goroutine at a time. Critical sections nest:
// only the outermost Enter publishes the session's epoch and only the
// outermost Exit clears it.
type Session struct {
	mgr   *Manager
	id    int
	depth int
}

// NewSession registers a new session slot.
func (m *Manager) NewSession() (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		return nil, fmt.Errorf("epoch: all %d session slots in use", MaxSessions)
	}
	id := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.inUse++
	s := &Session{mgr: m, id: id}
	sl := &m.slots[id]
	sl.inCritical.Store(0)
	sl.epoch.Store(0)
	sl.registered.Store(1)
	return s, nil
}

// Close unregisters the session. Closing a session that is inside a
// critical section is an error.
func (s *Session) Close() error {
	if s.depth != 0 {
		return fmt.Errorf("epoch: closing session %d inside a critical section", s.id)
	}
	m := s.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	sl := &m.slots[s.id]
	if sl.registered.Load() == 0 {
		return fmt.Errorf("epoch: session %d already closed", s.id)
	}
	sl.registered.Store(0)
	sl.inCritical.Store(0)
	m.free = append(m.free, s.id)
	m.inUse--
	return nil
}

// ID returns the session's slot index (the paper's threadId).
func (s *Session) ID() int { return s.id }

// Enter begins (or nests into) a critical section / grace period. Upon
// entering, the session publishes the current global epoch as its local
// epoch (paper Fig. 3 and the enter_critical_section listing). The
// publish-and-recheck loop guarantees the session can never be observed
// with a stale epoch more than one behind the global epoch.
func (s *Session) Enter() {
	if s.depth++; s.depth > 1 {
		return
	}
	sl := &s.mgr.slots[s.id]
	for {
		e := s.mgr.global.Load()
		sl.epoch.Store(e)
		sl.inCritical.Store(1) // sequentially consistent: acts as the paper's memory_fence
		if s.mgr.global.Load() == e {
			return
		}
		// The epoch advanced between our read and our publish; the
		// advancer may not have seen us. Retract and retry so the
		// e / e-1 invariant holds.
		sl.inCritical.Store(0)
	}
}

// Exit leaves the critical section opened by the matching Enter.
func (s *Session) Exit() {
	if s.depth <= 0 {
		panic("epoch: Exit without matching Enter")
	}
	if s.depth--; s.depth > 0 {
		return
	}
	s.mgr.slots[s.id].inCritical.Store(0)
}

// InCritical reports whether the session is inside a critical section.
func (s *Session) InCritical() bool { return s.depth > 0 }

// Epoch returns the session's published thread-local epoch. Only
// meaningful while inside a critical section.
func (s *Session) Epoch() uint64 { return s.mgr.slots[s.id].epoch.Load() }

// Refresh re-publishes the current global epoch as the session's local
// epoch without leaving the critical section. Long-running enumerations
// call this between memory blocks so they do not stall epoch advancement
// (paper §4: the query compiler chooses critical-section granularity).
func (s *Session) Refresh() {
	if s.depth == 0 {
		panic("epoch: Refresh outside critical section")
	}
	sl := &s.mgr.slots[s.id]
	for {
		e := s.mgr.global.Load()
		sl.epoch.Store(e)
		if s.mgr.global.Load() == e {
			return
		}
	}
}

// canAdvanceFrom reports whether every in-critical session other than
// exceptID has published epoch >= g.
func (m *Manager) canAdvanceFrom(g uint64, exceptID int) bool {
	for i := range m.slots {
		sl := &m.slots[i]
		if i == exceptID || sl.registered.Load() == 0 {
			continue
		}
		if sl.inCritical.Load() == 1 && sl.epoch.Load() < g {
			return false
		}
	}
	return true
}

// TryAdvance attempts to increment the global epoch by one. It fails if
// any session inside a critical section has not yet reached the current
// global epoch, or if a compaction currently owns the advance gate.
// Returns the new global epoch and whether the advance happened.
func (m *Manager) TryAdvance() (uint64, bool) {
	if m.gate.Load() != 0 {
		return m.global.Load(), false
	}
	return m.tryAdvance(-1)
}

// TryAdvanceOwner is TryAdvance for the gate owner: it ignores the gate
// and excludes the owner's own session from the scan (the compaction
// thread runs inside a critical section pinned at an older epoch, paper
// §5.1).
func (m *Manager) TryAdvanceOwner(owner *Session) (uint64, bool) {
	return m.tryAdvance(owner.id)
}

func (m *Manager) tryAdvance(exceptID int) (uint64, bool) {
	g := m.global.Load()
	if !m.canAdvanceFrom(g, exceptID) {
		return g, false
	}
	if m.global.CompareAndSwap(g, g+1) {
		return g + 1, true
	}
	return m.global.Load(), false
}

// AcquireGate makes owner the only session allowed to advance the global
// epoch. Returns false if another owner already holds the gate.
func (m *Manager) AcquireGate(owner *Session) bool {
	return m.gate.CompareAndSwap(0, int64(owner.id)+1)
}

// ReleaseGate opens epoch advancement to everyone again.
func (m *Manager) ReleaseGate(owner *Session) {
	if !m.gate.CompareAndSwap(int64(owner.id)+1, 0) {
		panic("epoch: ReleaseGate by non-owner")
	}
}

// InCriticalSessions counts the registered sessions currently inside a
// critical section (epoch pins). The robustness suites use it to assert
// that canceled and panicked queries exited every critical section; a
// quiesced system reads 0.
func (m *Manager) InCriticalSessions() int {
	n := 0
	for i := range m.slots {
		sl := &m.slots[i]
		if sl.registered.Load() == 1 && sl.inCritical.Load() == 1 {
			n++
		}
	}
	return n
}

// AllAtLeast reports whether every in-critical session except the given
// one has published epoch >= e. The compactor uses this to detect that
// all threads have entered the freezing or relocation epoch.
func (m *Manager) AllAtLeast(e uint64, except *Session) bool {
	id := -1
	if except != nil {
		id = except.id
	}
	return m.canAdvanceFrom(e, id)
}

// reclaimable reports whether memory freed in freedEpoch can be reclaimed
// now: two epochs must have fully passed (paper §3.4).
func reclaimable(freedEpoch, global uint64) bool {
	return global >= freedEpoch+2
}
