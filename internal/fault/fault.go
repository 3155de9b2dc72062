// Package fault is the engine's fault-injection hook layer: named
// injection points compiled into the production paths (block claims,
// block allocation, compaction group moves, maintainer passes) that the
// robustness stress suites arm to simulate panicking kernels, failing
// allocations and stalled workers.
//
// The design constraint is that the hooks must be free when unused: a
// disarmed Point is one atomic pointer load and a branch — no map
// lookups, no locks, no allocation — so the hooks stay in release
// builds and the hot paths keep their perf envelope. Tests arm a Plan
// (Enable) and disarm it again (the returned func / Disarm); arming is
// process-global, so suites that inject must not run in parallel with
// each other.
package fault

import (
	"sync/atomic"
	"time"
)

// Rule describes what one injection point does once armed.
type Rule struct {
	// At fires the rule on the Nth hit only (1-based); 0 fires on every
	// hit. "Panic at the 3rd block" is {At: 3, Panic: true}.
	At int64
	// Every fires the rule on every hit from At onward (instead of the
	// Nth hit only).
	Every bool
	// Delay stalls the hitting goroutine before any panic/error — the
	// "delayed worker" injection.
	Delay time.Duration
	// Panic makes the point panic with a PanicValue — the "panicking
	// kernel" injection.
	Panic bool
	// Err is returned from Check — the "failing allocation" injection.
	Err error

	hits atomic.Int64
}

// PanicValue is what an armed Panic rule panics with, so recover paths
// and tests can distinguish injected panics from real bugs.
type PanicValue struct {
	Point string
	Hit   int64
}

// Plan is a set of armed rules keyed by injection-point name.
type Plan struct {
	rules map[string]*Rule
}

// active is the armed plan; nil means every point is a no-op.
var active atomic.Pointer[Plan]

// Enable arms a plan. The returned func disarms it (tests defer it).
// Rules are private to the plan: re-enabling a fresh plan resets hit
// counts.
func Enable(rules map[string]*Rule) func() {
	p := &Plan{rules: rules}
	active.Store(p)
	return func() { active.CompareAndSwap(p, nil) }
}

// Disarm unconditionally disables injection.
func Disarm() { active.Store(nil) }

// Armed reports whether a plan is currently armed.
func Armed() bool { return active.Load() != nil }

// fire evaluates whether this hit triggers the rule.
func (r *Rule) fire() (int64, bool) {
	n := r.hits.Add(1)
	switch {
	case r.At == 0:
		return n, true
	case r.Every:
		return n, n >= r.At
	default:
		return n, n == r.At
	}
}

// Point hits a panic/delay injection point. Disarmed cost: one atomic
// load and a nil branch.
func Point(name string) {
	p := active.Load()
	if p == nil {
		return
	}
	r, ok := p.rules[name]
	if !ok {
		return
	}
	n, hit := r.fire()
	if !hit {
		return
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Panic {
		panic(PanicValue{Point: name, Hit: n})
	}
}

// Check hits an error injection point: it behaves like Point and
// additionally returns the rule's Err when the rule fires.
func Check(name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	r, ok := p.rules[name]
	if !ok {
		return nil
	}
	n, hit := r.fire()
	if !hit {
		return nil
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Panic {
		panic(PanicValue{Point: name, Hit: n})
	}
	return r.Err
}

// Hits reports how many times the named point has been hit under the
// currently armed plan (0 when disarmed or unknown).
func Hits(name string) int64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	r, ok := p.rules[name]
	if !ok {
		return 0
	}
	return r.hits.Load()
}

// Names of the injection points compiled into the engine. Declared here
// so suites and grep share one vocabulary.
const (
	// PointScanBlock hits once per claimed block in every parallel or
	// serial constrained scan, before the caller's kernel runs.
	PointScanBlock = "mem.scan.block"
	// PointAllocBlock hits on every fresh block allocation; an Err rule
	// makes the allocation fail.
	PointAllocBlock = "mem.alloc.block"
	// PointCompactGroup hits once per compaction group claimed by a
	// move-phase worker, before the group moves.
	PointCompactGroup = "mem.compact.group"
	// PointMaintainerPass hits at the top of every maintainer pass.
	PointMaintainerPass = "mem.maintainer.pass"
)
