package mem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Background maintenance scheduler. The paper runs compaction on "a
// dedicated compaction thread" (§5); Maintainer is that thread grown
// into a production component: it watches the heap's occupancy and
// fragmentation through the manager's stats plumbing and triggers
// parallel compaction passes under configurable thresholds, so
// applications stop sprinkling ad-hoc CompactNow calls through their
// code.

// MaintainerConfig tunes the background maintenance scheduler. The zero
// value is usable: poll every 25ms, trigger once any context has two
// compactable blocks (the minimum that can form a §5.2 group), use the
// manager's configured compaction worker count.
type MaintainerConfig struct {
	// Interval is the poll period (default 25ms).
	Interval time.Duration
	// MinFragmentedBlocks is the number of compaction-candidate blocks a
	// single context must accumulate before a pass triggers (default 2 —
	// a compaction group needs at least two sources).
	MinFragmentedBlocks int
	// FragmentedFraction optionally gates passes on global fragmentation:
	// when > 0, a pass also requires candidates/total-blocks >= this
	// fraction, which keeps a large mostly-dense heap from compacting
	// over and over for a couple of sparse blocks.
	FragmentedFraction float64
	// Workers is the move-phase worker count per pass; <= 0 selects the
	// manager's configured default (Config.CompactionWorkers).
	Workers int
}

func (c MaintainerConfig) withDefaults() MaintainerConfig {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.MinFragmentedBlocks <= 0 {
		c.MinFragmentedBlocks = 2
	}
	return c
}

// Maintainer is a running background maintenance goroutine; see
// Manager.StartMaintainer.
type Maintainer struct {
	m   *Manager
	cfg MaintainerConfig
	ctx context.Context

	// state is the lifecycle guard: a Maintainer starts exactly once and
	// never restarts (restart = a fresh StartMaintainer).
	state    atomic.Int32
	done     chan struct{}
	finished chan struct{}
	stopOnce sync.Once

	// wake is the allocation-pressure wake-up: abandonAllocBlock signals
	// it (via Manager.signalAllocPressure) when a context crosses
	// MinFragmentedBlocks, so reclamation latency is bounded by the
	// abandon, not the poll interval.
	wake chan struct{}
	reg  *maintWakeReg

	ticks   atomic.Int64
	passes  atomic.Int64
	wakeups atomic.Int64
	panics  atomic.Int64
}

// Maintainer lifecycle states.
const (
	mtIdle int32 = iota
	mtRunning
	mtStopped
)

// ErrMaintainerStarted is returned by Start on a maintainer whose
// goroutine is already running.
var ErrMaintainerStarted = errors.New("mem: maintainer already started")

// ErrMaintainerStopped is returned by Start on a stopped maintainer;
// restart with a fresh StartMaintainer.
var ErrMaintainerStopped = errors.New("mem: maintainer stopped (start a new one)")

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
// woken maintainer re-evaluates its full shouldCompact gates
// (MinFragmentedBlocks, FragmentedFraction) before compacting, off the
// allocator's critical path, and the non-blocking send into a buffered
// channel coalesces bursts into one wake-up.
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
	// configured threshold, unowned, not already in a group).
	Fragmented int
	// MaxContextFragmented is the largest per-context candidate count;
	// groups form within one context, so this decides whether a pass can
	// do anything at all.
	MaxContextFragmented int
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
// Interval it snapshots fragmentation, runs one parallel compaction pass
// when the thresholds say the pass can reclaim something, and drains the
// block graveyard. Between ticks it also reacts to allocation-pressure
// wake-ups (signalAllocPressure), so a context that crosses the
// candidate threshold is compacted immediately instead of waiting out
// the poll interval. Stop it with Maintainer.Stop.
func (m *Manager) StartMaintainer(cfg MaintainerConfig) *Maintainer {
	return m.StartMaintainerCtx(context.Background(), cfg)
}

// StartMaintainerCtx is StartMaintainer bound to a context: when ctx is
// canceled the maintenance goroutine shuts itself down (an in-flight
// compaction pass sees the same ctx and aborts its remaining groups),
// exactly as if Stop had been called. Stop remains safe to call and
// still blocks until the goroutine has exited.
func (m *Manager) StartMaintainerCtx(ctx context.Context, cfg MaintainerConfig) *Maintainer {
	if ctx == nil {
		ctx = context.Background()
	}
	mt := &Maintainer{
		m:        m,
		cfg:      cfg.withDefaults(),
		ctx:      ctx,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	mt.reg = &maintWakeReg{ch: mt.wake}
	_ = mt.Start() // fresh instance: cannot fail
	return mt
}

// Start launches the maintenance goroutine. It runs at most once per
// Maintainer: a second call returns ErrMaintainerStarted, a call after
// Stop returns ErrMaintainerStopped (StartMaintainer constructs an
// already-started instance, so only those errors are observable).
func (mt *Maintainer) Start() error {
	if !mt.state.CompareAndSwap(mtIdle, mtRunning) {
		if mt.state.Load() == mtStopped {
			return ErrMaintainerStopped
		}
		return ErrMaintainerStarted
	}
	// Last registration wins when several maintainers run (tests);
	// Stop only clears its own registration.
	mt.m.maintWake.Store(mt.reg)
	go mt.loop()
	return nil
}

// Running reports whether the maintenance goroutine is live.
func (mt *Maintainer) Running() bool { return mt.state.Load() == mtRunning }

func (mt *Maintainer) loop() {
	defer func() {
		mt.state.Store(mtStopped)
		mt.m.maintWake.CompareAndSwap(mt.reg, nil)
		close(mt.finished)
	}()
	t := time.NewTicker(mt.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-mt.done:
			return
		case <-mt.ctx.Done():
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
// panic anywhere in the pass (snapshot, compaction, graveyard) is
// recovered and counted, and the maintainer keeps running — background
// reclamation must outlive one poisoned pass.
func (mt *Maintainer) maintain() {
	defer func() {
		if r := recover(); r != nil {
			mt.panics.Add(1)
		}
	}()
	fault.Point(fault.PointMaintainerPass)
	// Governance first: reclassify memory pressure, keep the degradation
	// ladder engaged while it lasts, and restore pool bounds once it
	// clears — the periodic safety net behind the event-driven rebalance
	// on the allocation and admission reclaim path.
	mt.m.governor.tick()
	if mt.shouldCompact(mt.m.FragmentationSnapshot()) {
		if _, err := mt.m.CompactNowWorkersCtx(mt.ctx, mt.cfg.Workers); err == nil {
			mt.passes.Add(1)
		}
	}
	mt.m.drainGraveyard()
}

func (mt *Maintainer) shouldCompact(f Fragmentation) bool {
	if f.MaxContextFragmented < mt.cfg.MinFragmentedBlocks {
		return false
	}
	if mt.cfg.FragmentedFraction > 0 && f.TotalBlocks > 0 &&
		float64(f.Fragmented) < mt.cfg.FragmentedFraction*float64(f.TotalBlocks) {
		return false
	}
	return true
}

// Stop shuts the maintenance goroutine down and blocks until it has
// exited (any in-flight compaction pass completes first), releasing the
// allocation-pressure wake registration so no goroutine or channel
// lingers. Idempotent, and safe on a maintainer whose context already
// shut it down.
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
