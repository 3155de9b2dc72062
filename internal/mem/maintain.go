package mem

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Background maintenance scheduler. The paper runs compaction on "a
// dedicated compaction thread" (§5) and overflow rescue on "a background
// thread" (§3.1); Maintainer is the runtime's one background thread and
// does both, so applications stop sprinkling ad-hoc CompactNow calls
// through their code.

// MaintainerConfig tunes the background maintenance scheduler. The zero
// value is usable.
type MaintainerConfig struct {
	// Interval is the poll period (default 25ms).
	Interval time.Duration
}

// minFragmentedBlocks is the number of compaction-candidate blocks a
// single context must hold before a pass triggers: a compaction group
// needs at least two sources.
const minFragmentedBlocks = 2

// Maintainer is a running background maintenance goroutine; see
// Manager.StartMaintainer. Each pass runs, in order, a parallel
// compaction pass when some context holds minFragmentedBlocks
// candidate blocks or any empty one to bury, the §3.1 overflow rescue
// when incarnation overflow has retired entries or slots, and the
// block-graveyard drain.
//
// The rescue check costs one mutex and two atomic loads per pass while
// nothing is retired. When victims exist and a session is stuck inside
// a critical section, the pass can block for up to the rescue's 500ms
// grace wait, and compaction and the graveyard drain wait behind it.
type Maintainer struct {
	m        *Manager
	interval time.Duration

	running  atomic.Bool
	done     chan struct{}
	finished chan struct{}
	stopOnce sync.Once

	// wake is the allocation-pressure wake-up: abandonAllocBlock signals
	// it (via Manager.signalAllocPressure) when an abandoned block becomes
	// a compaction candidate, so reclamation latency is bounded by the
	// abandon, not the poll interval.
	wake chan struct{}
	reg  *maintWakeReg

	ticks   atomic.Int64
	passes  atomic.Int64
	wakeups atomic.Int64
	panics  atomic.Int64
}

// maintWakeReg is the manager-side registration of a Maintainer's wake
// channel.
type maintWakeReg struct {
	ch chan struct{}
}

// signalAllocPressure wakes the registered Maintainer. Called from the
// allocation path only when an abandoned block itself just became a
// compaction candidate (the O(1) gate in abandonAllocBlock), so it
// fires at most once per sparse-block abandon and never on dense bulk
// loads. It deliberately does no threshold checking of its own: the
// woken maintainer re-evaluates the candidate count before compacting,
// off the allocator's critical path, and the non-blocking send into a
// buffered channel coalesces bursts into one wake-up.
func (m *Manager) signalAllocPressure() {
	reg := m.maintWake.Load()
	if reg == nil {
		return
	}
	select {
	case reg.ch <- struct{}{}:
	default:
	}
}

// Fragmentation is a point-in-time view of how compactable the heap is.
type Fragmentation struct {
	// TotalBlocks counts live blocks across all contexts.
	TotalBlocks int
	// Fragmented counts compaction-candidate blocks (occupancy under the
	// configured threshold, unowned, not already in a group; empty ones
	// included unless they wait on the reclaim queue).
	Fragmented int
	// MaxContextFragmented is the largest per-context candidate count;
	// groups form within one context, so this decides whether a pass can
	// move anything at all.
	MaxContextFragmented int
	// empty counts candidates with no valid row: a pass buries them even
	// alone, with no group to pack.
	empty int
}

// FragmentationSnapshot surveys every context's blocks once. It is the
// Maintainer's trigger input and a cheap observability surface (one
// atomic load per block).
func (m *Manager) FragmentationSnapshot() Fragmentation {
	var f Fragmentation
	for _, ctx := range m.Contexts() {
		n := 0
		for _, b := range ctx.SnapshotBlocks() {
			f.TotalBlocks++
			if m.isCompactionCandidate(b) {
				n++
				if b.validCount.Load() == 0 {
					f.empty++
				}
			}
		}
		f.Fragmented += n
		if n > f.MaxContextFragmented {
			f.MaxContextFragmented = n
		}
	}
	return f
}

// StartMaintainer launches the background maintenance goroutine: every
// Interval it runs one maintenance pass (see Maintainer). Between ticks
// it also reacts to allocation-pressure wake-ups (signalAllocPressure),
// so a context that crosses the candidate threshold is compacted
// immediately instead of waiting out the poll interval. Stop it with
// Maintainer.Stop; a fresh StartMaintainer starts a new one.
func (m *Manager) StartMaintainer(cfg MaintainerConfig) *Maintainer {
	if cfg.Interval <= 0 {
		cfg.Interval = 25 * time.Millisecond
	}
	mt := &Maintainer{
		m:        m,
		interval: cfg.Interval,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	mt.reg = &maintWakeReg{ch: mt.wake}
	mt.running.Store(true)
	// Last registration wins when several maintainers run (tests);
	// Stop only clears its own registration.
	m.maintWake.Store(mt.reg)
	go mt.loop()
	return mt
}

// Running reports whether the maintenance goroutine is live.
func (mt *Maintainer) Running() bool { return mt.running.Load() }

func (mt *Maintainer) loop() {
	defer func() {
		mt.running.Store(false)
		mt.m.maintWake.CompareAndSwap(mt.reg, nil)
		close(mt.finished)
	}()
	t := time.NewTicker(mt.interval)
	defer t.Stop()
	for {
		select {
		case <-mt.done:
			return
		case <-t.C:
			mt.ticks.Add(1)
			mt.maintain()
		case <-mt.wake:
			mt.wakeups.Add(1)
			mt.maintain()
		}
	}
}

// maintain runs one maintenance pass under the robustness contract: a
// panic anywhere in the pass (snapshot, compaction, rescue, graveyard)
// is recovered and counted, and the maintainer keeps running —
// background reclamation must outlive one poisoned pass.
func (mt *Maintainer) maintain() {
	defer func() {
		if r := recover(); r != nil {
			mt.panics.Add(1)
		}
	}()
	fault.Point(fault.PointMaintainerPass)
	m := mt.m
	if f := m.FragmentationSnapshot(); f.MaxContextFragmented >= minFragmentedBlocks || f.empty > 0 {
		if _, err := m.CompactNow(); err == nil {
			mt.passes.Add(1)
		}
	}
	if m.RetiredEntries() > 0 || m.stats.SlotsRetired.Load() > m.stats.SlotsRescued.Load() {
		_, _ = m.rescueOverflowed()
	}
	m.drainGraveyard()
}

// Stop shuts the maintenance goroutine down and blocks until it has
// exited (any in-flight pass completes first), releasing the
// allocation-pressure wake registration so no goroutine or channel
// lingers. Idempotent.
func (mt *Maintainer) Stop() {
	mt.stopOnce.Do(func() {
		mt.m.maintWake.CompareAndSwap(mt.reg, nil)
		close(mt.done)
	})
	<-mt.finished
}

// Ticks reports how many poll intervals the maintainer has evaluated.
func (mt *Maintainer) Ticks() int64 { return mt.ticks.Load() }

// Passes reports how many compaction passes the maintainer has run.
func (mt *Maintainer) Passes() int64 { return mt.passes.Load() }

// Wakeups reports how many allocation-pressure wake-ups the maintainer
// has serviced (signals arriving while a pass runs coalesce into one).
func (mt *Maintainer) Wakeups() int64 { return mt.wakeups.Load() }

// Panics reports how many maintenance passes were recovered from a
// panic (the maintainer survives them).
func (mt *Maintainer) Panics() int64 { return mt.panics.Load() }
