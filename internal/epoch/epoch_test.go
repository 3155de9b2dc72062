package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newSession(t *testing.T, m *Manager) *Session {
	t.Helper()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionLifecycle(t *testing.T) {
	m := NewManager()
	s := newSession(t, m)
	if m.Sessions() != 1 {
		t.Fatalf("Sessions = %d, want 1", m.Sessions())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Sessions() != 0 {
		t.Fatalf("Sessions = %d, want 0", m.Sessions())
	}
	if err := s.Close(); err == nil {
		t.Fatal("double Close should fail")
	}
}

func TestCloseInsideCriticalFails(t *testing.T) {
	m := NewManager()
	s := newSession(t, m)
	s.Enter()
	if err := s.Close(); err == nil {
		t.Fatal("Close inside critical section should fail")
	}
	s.Exit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionExhaustion(t *testing.T) {
	m := NewManager()
	var all []*Session
	for i := 0; i < MaxSessions; i++ {
		all = append(all, newSession(t, m))
	}
	if _, err := m.NewSession(); err == nil {
		t.Fatal("expected session exhaustion")
	}
	for _, s := range all {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.NewSession(); err != nil {
		t.Fatalf("slot should be reusable: %v", err)
	}
}

func TestAdvanceBlockedByLaggingSession(t *testing.T) {
	m := NewManager()
	s1 := newSession(t, m)
	s2 := newSession(t, m)

	s1.Enter() // s1 pins epoch 0
	if _, ok := m.TryAdvance(); !ok {
		t.Fatal("advance 0->1 should succeed: s1 is at the current epoch")
	}
	// Now global = 1, s1 still published at 0: no further advance.
	if _, ok := m.TryAdvance(); ok {
		t.Fatal("advance 1->2 must fail while s1 is pinned at 0")
	}
	s2.Enter() // s2 publishes epoch 1
	if _, ok := m.TryAdvance(); ok {
		t.Fatal("s1 still blocks advancement")
	}
	s1.Exit()
	if g, ok := m.TryAdvance(); !ok || g != 2 {
		t.Fatalf("advance after s1 exit: got (%d,%v), want (2,true)", g, ok)
	}
	s2.Exit()
}

func TestNestedCriticalSections(t *testing.T) {
	m := NewManager()
	s := newSession(t, m)
	s.Enter()
	s.Enter()
	s.Exit()
	if !s.InCritical() {
		t.Fatal("outer critical section should still be open")
	}
	// The nested Exit must not clear the published state.
	if _, ok := m.TryAdvance(); !ok {
		t.Fatal("advance should work: s is at the current epoch")
	}
	if _, ok := m.TryAdvance(); ok {
		t.Fatal("s now lags; advance must fail")
	}
	s.Exit()
	if s.InCritical() {
		t.Fatal("critical section should be closed")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	m := NewManager()
	s := newSession(t, m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Exit()
}

func TestRefresh(t *testing.T) {
	m := NewManager()
	s := newSession(t, m)
	s.Enter()
	m.TryAdvance() // 0 -> 1, allowed since s is at 0? No: s pins 0 and global is 0, so advance to 1 works.
	if s.Epoch() != 0 {
		t.Fatalf("session epoch = %d, want 0", s.Epoch())
	}
	if _, ok := m.TryAdvance(); ok {
		t.Fatal("second advance must fail until refresh")
	}
	s.Refresh()
	if s.Epoch() != 1 {
		t.Fatalf("after Refresh epoch = %d, want 1", s.Epoch())
	}
	if g, ok := m.TryAdvance(); !ok || g != 2 {
		t.Fatalf("advance after refresh: (%d,%v)", g, ok)
	}
	s.Exit()
}

func TestGate(t *testing.T) {
	m := NewManager()
	owner := newSession(t, m)
	other := newSession(t, m)
	if !m.AcquireGate(owner) {
		t.Fatal("gate acquire failed")
	}
	if m.AcquireGate(other) {
		t.Fatal("second gate acquire should fail")
	}
	if _, ok := m.TryAdvance(); ok {
		t.Fatal("TryAdvance must fail while gate held")
	}
	// The owner can advance even with the gate held, ignoring itself.
	owner.Enter()
	if _, ok := m.TryAdvanceOwner(owner); !ok {
		t.Fatal("owner advance should succeed")
	}
	owner.Exit()
	m.ReleaseGate(owner)
	if _, ok := m.TryAdvance(); !ok {
		t.Fatal("TryAdvance should work after release")
	}
}

func TestReleaseGateByNonOwnerPanics(t *testing.T) {
	m := NewManager()
	owner := newSession(t, m)
	other := newSession(t, m)
	m.AcquireGate(owner)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseGate(other)
}

func TestReclaimable(t *testing.T) {
	if reclaimable(5, 6) {
		t.Fatal("e+1 must not be reclaimable")
	}
	if !reclaimable(5, 7) {
		t.Fatal("e+2 must be reclaimable")
	}
	if !reclaimable(0, 2) {
		t.Fatal("0+2 must be reclaimable")
	}
}

// TestEpochInvariantUnderConcurrency hammers Enter/Exit on many sessions
// while one goroutine advances the epoch, asserting the core invariant:
// an in-critical session is never more than one epoch behind the global.
func TestEpochInvariantUnderConcurrency(t *testing.T) {
	m := NewManager()
	const workers = 8
	stop := make(chan struct{})
	var violations atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Enter()
				// Check the invariant from inside: our published
				// epoch must be >= global-1 for the entire section.
				for i := 0; i < 10; i++ {
					g := m.Global()
					e := s.Epoch()
					if e+1 < g {
						violations.Add(1)
					}
				}
				s.Exit()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			m.TryAdvance()
		}
		close(stop)
	}()
	wg.Wait()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d epoch invariant violations", v)
	}
	if m.Global() == 0 {
		t.Fatal("epoch never advanced during the stress test")
	}
}

// TestAdvanceMonotonic verifies concurrent TryAdvance calls never skip or
// regress the epoch.
func TestAdvanceMonotonic(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	var maxSeen atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				g, _ := m.TryAdvance()
				for {
					cur := maxSeen.Load()
					if g <= cur || maxSeen.CompareAndSwap(cur, g) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.Global() != maxSeen.Load() {
		t.Fatalf("global %d != max seen %d", m.Global(), maxSeen.Load())
	}
}
