package tpch

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/types"
)

// The pruned-scan contract: every parallel driver with predicate
// pushdown (Q1/Q3/Q6/Q10) must return
// byte-identical results to its unpruned serial oracle — pruning drops
// blocks that provably hold no matching row, the kernels keep evaluating
// the residual predicate, so the answer cannot change.

// TestPrunedQueriesMatchOracle: quiesced collections, all layouts,
// 1..NumCPU workers.
func TestPrunedQueriesMatchOracle(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect, core.Columnar} {
		layout := layout
		t.Run(layout.String(), func(t *testing.T) {
			rt := core.MustRuntime(core.Options{HeapBackend: true})
			defer rt.Close()
			s := rt.MustSession()
			defer s.Close()
			sdb, err := LoadSMC(rt, s, d, layout)
			if err != nil {
				t.Fatal(err)
			}
			q := NewSMCQueries(sdb)
			wantQ1 := q.Q1(s, p)
			wantQ3 := q.Q3(s, p)
			wantQ6 := q.Q6(s, p)
			wantQ10 := q.Q10(s, p)
			for _, workers := range joinWorkerCounts() {
				if got := mustPar(t, q.Q1ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ1) {
					t.Fatalf("pruned Q1ParCtx(workers=%d) diverges from serial Q1", workers)
				}
				if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
					t.Fatalf("pruned Q3ParCtx(workers=%d) diverges from serial Q3", workers)
				}
				if got := mustPar(t, q.Q6ParCtx, s, p, workers); got != wantQ6 {
					t.Fatalf("pruned Q6ParCtx(workers=%d) = %v, want %v", workers, got, wantQ6)
				}
				if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
					t.Fatalf("pruned Q10ParCtx(workers=%d) diverges from serial Q10", workers)
				}
			}
		})
	}
}

// TestPrunedScanActuallyPrunes: on a ship-date-clustered load (small
// blocks so the collection spans many), the Q6 window predicate must
// skip blocks — the BlocksPruned runtime counter has to move, and the
// results still match the oracle.
func TestPrunedScanActuallyPrunes(t *testing.T) {
	d := testDataset(t)
	// Cluster lineitems by ship date so block bounds are narrow date
	// ranges (the append-in-event-time shape zone maps reward).
	sorted := *d
	sorted.Lineitems = append([]LineitemRow(nil), d.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	p := DefaultParams()
	rt := core.MustRuntime(core.Options{HeapBackend: true, BlockSize: 1 << 14})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, &sorted, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	if sdb.Lineitems.Context().Blocks() < 8 {
		t.Fatalf("only %d lineitem blocks; pruning test needs a multi-block heap", sdb.Lineitems.Context().Blocks())
	}
	q := NewSMCQueries(sdb)
	want := q.Q6(s, p)
	before := rt.StatsSnapshot()
	for _, workers := range []int{1, 2, 4} {
		if got := mustPar(t, q.Q6ParCtx, s, p, workers); got != want {
			t.Fatalf("pruned Q6ParCtx(workers=%d) = %v, want %v", workers, got, want)
		}
	}
	after := rt.StatsSnapshot()
	if after.BlocksPruned == before.BlocksPruned {
		t.Fatal("BlocksPruned did not move on a date-clustered heap")
	}
	if after.BlocksScanned == before.BlocksScanned {
		t.Fatal("BlocksScanned did not move")
	}
	if after.BlocksPruned-before.BlocksPruned <= after.BlocksScanned-before.BlocksScanned {
		t.Fatalf("expected majority pruning on a clustered 1-year window: pruned %d, scanned %d",
			after.BlocksPruned-before.BlocksPruned, after.BlocksScanned-before.BlocksScanned)
	}
}

// TestPrunedParallelMaintainerChurnStress runs every pruned driver
// against concurrent add/remove churn with an active background
// Maintainer. The churned rows are crafted to fail every residual
// predicate (far-future ship dates, commit==receipt, non-'R' return
// flags, null references), so
// the stable rows fully determine the answers: every pruned parallel run
// must return exactly the serial baseline while blocks appear, widen,
// empty, compact and re-tighten underneath it. Run with -race.
func TestPrunedParallelMaintainerChurnStress(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()
	rt := core.MustRuntime(core.Options{HeapBackend: true})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSMCQueries(sdb)
	wantQ1 := q.Q1(s, p)
	wantQ3 := q.Q3(s, p)
	wantQ6 := q.Q6(s, p)
	wantQ10 := q.Q10(s, p)

	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: time.Millisecond})
	defer mt.Stop()

	stop := make(chan struct{})
	var fail atomic.Value
	var wg sync.WaitGroup
	farFuture := types.MakeDate(2999, 1, 1)
	const churners = 2
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs, err := rt.NewSession()
			if err != nil {
				fail.Store(err.Error())
				return
			}
			defer cs.Close()
			var lpool []core.Ref[SLineitem]
			var opool []core.Ref[SOrder]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Invisible lineitem: ship date past every query window,
				// commit==receipt (fails Q4's lateness test), 'N' return
				// flag, null order/part/supplier refs.
				lref, err := sdb.Lineitems.Add(cs, &SLineitem{
					OrderKey:   int64(1)<<40 | int64(w),
					ReturnFlag: 'N',
					LineStatus: 'F',
					ShipDate:   farFuture,
				})
				if err != nil {
					fail.Store(err.Error())
					return
				}
				lpool = append(lpool, lref)
				if i%4 == 0 {
					// Invisible order: far outside the Q4 window.
					oref, err := sdb.Orders.Add(cs, &SOrder{
						Key:       int64(1)<<41 | int64(i),
						OrderDate: farFuture,
					})
					if err != nil {
						fail.Store(err.Error())
						return
					}
					opool = append(opool, oref)
				}
				if len(lpool) > 16 {
					victim := lpool[0]
					lpool = lpool[1:]
					if err := sdb.Lineitems.Remove(cs, victim); err != nil {
						fail.Store(err.Error())
						return
					}
				}
				if len(opool) > 8 {
					victim := opool[0]
					opool = opool[1:]
					if err := sdb.Orders.Remove(cs, victim); err != nil {
						fail.Store(err.Error())
						return
					}
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	runs := 0
	for time.Now().Before(deadline) && fail.Load() == nil {
		workers := 1 + runs%4
		if got := mustPar(t, q.Q1ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ1) {
			t.Fatalf("run %d: pruned Q1ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
			t.Fatalf("run %d: pruned Q3ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		if got := mustPar(t, q.Q6ParCtx, s, p, workers); got != wantQ6 {
			t.Fatalf("run %d: pruned Q6ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
			t.Fatalf("run %d: pruned Q10ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		runs++
	}
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if runs == 0 {
		t.Fatal("no pruned query runs completed")
	}
}
