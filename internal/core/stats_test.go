package core

import (
	"context"
	"testing"

	"repro/internal/region"
)

// TestRuntimeStatsCountersMove: the runtime snapshot must reflect both
// the mem session pool (hit/miss across parallel scans) and registered
// arena pools (lease/reuse/retained footprint) — and the counters must
// actually move when the subsystems run.
func TestRuntimeStatsCountersMove(t *testing.T) {
	rt := MustRuntime(Options{BlockSize: 1 << 13, HeapBackend: true})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()

	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	rt.RegisterArenaPool("test-pool", pool)

	base := rt.StatsSnapshot()
	if len(base.ArenaPools) != 1 || base.ArenaPools[0].Name != "test-pool" {
		t.Fatalf("registered pools = %+v, want one named test-pool", base.ArenaPools)
	}
	if base.ArenaLeases() != 0 {
		t.Fatalf("fresh pool reports %d leases", base.ArenaLeases())
	}

	// Arena leases: two lease/return cycles — the second must be a reuse,
	// and the retained footprint must become visible.
	a := pool.Lease()
	region.NewSlice[int64](a, 1024)
	pool.Return(a)
	pool.Return(pool.Lease())
	st := rt.StatsSnapshot()
	if got := st.ArenaPools[0]; got.Leases != 2 || got.Reuses != 1 {
		t.Fatalf("pool stats after two cycles: %+v", got)
	}
	if st.ArenaRetainedBytes() == 0 {
		t.Fatal("retained footprint did not move after returning a used arena")
	}

	// Session pool: a multi-worker parallel scan leases worker sessions
	// from the manager pool; a second scan must reuse them.
	coll := MustCollection[scanRow](rt, "rows", RowIndirect)
	coll.MustRegisterSynopses("ID")
	for i := 0; i < 4000; i++ {
		coll.MustAdd(s, &scanRow{ID: int64(i), Val: int64(i)})
	}
	for pass := 0; pass < 2; pass++ {
		if err := coll.ParallelForEachPred(s, 4, nil, func(int, Ref[scanRow], *scanRow) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	st = rt.StatsSnapshot()
	if st.SessionsLeased == base.SessionsLeased {
		t.Fatal("SessionsLeased did not move across parallel scans")
	}
	if st.SessionsReused == base.SessionsReused {
		t.Fatal("SessionsReused did not move across repeated parallel scans")
	}
	if st.BlocksAllocated == 0 {
		t.Fatal("BlocksAllocated did not move after loading a collection")
	}

	// Compaction engine counters: fragment the collection (90% removed
	// leaves every full block under the 30% threshold) and run a pass.
	var refs []Ref[scanRow]
	coll.ForEach(s, func(r Ref[scanRow], _ *scanRow) bool {
		refs = append(refs, r)
		return true
	})
	for i, r := range refs {
		if i%10 != 0 {
			if err := coll.Remove(s, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st = rt.StatsSnapshot()
	if st.Compactions == 0 || st.ObjectsMoved == 0 {
		t.Fatalf("compaction pass counters did not move: %+v", st)
	}
	if st.GroupsMoved == 0 || st.BytesReclaimed == 0 || st.CompactNanos == 0 {
		t.Fatalf("compaction engine counters did not move: GroupsMoved=%d BytesReclaimed=%d CompactNanos=%d",
			st.GroupsMoved, st.BytesReclaimed, st.CompactNanos)
	}
	if st.SynopsisRebuilds == 0 {
		t.Fatal("SynopsisRebuilds did not move across a compaction of a synopsis-bearing collection")
	}

	// Skip-scan counters: a predicated scan over sequentially loaded IDs
	// must prune blocks and count both sides.
	pred := coll.Predicate().Int64Range("ID", 0, 10)
	if err := coll.ParallelForEachPred(s, 2, pred, func(int, Ref[scanRow], *scanRow) bool { return true }); err != nil {
		t.Fatal(err)
	}
	st = rt.StatsSnapshot()
	if st.BlocksPruned == 0 || st.BlocksScanned == 0 {
		t.Fatalf("skip-scan counters did not move: BlocksPruned=%d BlocksScanned=%d", st.BlocksPruned, st.BlocksScanned)
	}

	if st.EpochPins != 0 {
		t.Fatalf("%d epoch pins leaked after the scans", st.EpochPins)
	}
}

// TestRuntimeGovernsRegisteredArenaPool drives a real region.ArenaPool
// through RegisterArenaPool into the governor: an admission over the
// budget empties its parked arenas (visible in the pool, in
// RuntimeStats.ArenaPools and in the governor's freed counter) and is
// then admitted, and the pool refills on demand afterwards.
func TestRuntimeGovernsRegisteredArenaPool(t *testing.T) {
	rt := MustRuntime(Options{BlockSize: 1 << 13, HeapBackend: true})
	defer rt.Close()
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	rt.RegisterArenaPool("governed", pool)

	park := func() {
		for _, a := range []*region.Arena{pool.Lease(), pool.Lease()} {
			region.NewSlice[int64](a, 1024)
			pool.Return(a)
		}
	}
	park()
	if pool.RetainedBytes() == 0 {
		t.Fatal("no arena parked in the pool")
	}

	g := rt.Manager().Governor()
	rt.SetMemoryBudget(g.GovernedUsed()) // over by exactly the parked arenas
	if err := g.Admit(context.Background()); err != nil {
		t.Fatalf("admission over idle arenas only: %v", err)
	}
	if n := pool.RetainedBytes(); n != 0 {
		t.Errorf("pool retains %d bytes after an over-budget admission, want 0", n)
	}
	st := rt.StatsSnapshot()
	if n := st.ArenaPools[0].RetainedBytes; n != 0 {
		t.Errorf("ArenaPools[0].RetainedBytes = %d after an over-budget admission, want 0", n)
	}
	if st.Governor.ArenaBytesFreed <= 0 {
		t.Errorf("Governor.ArenaBytesFreed = %d, want > 0", st.Governor.ArenaBytesFreed)
	}

	rt.SetMemoryBudget(0)
	park()
	if pool.RetainedBytes() == 0 {
		t.Error("pool did not refill after the budget was lifted")
	}
}
