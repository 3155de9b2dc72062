package tpch

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// mustPar runs a *ParCtx pipeline driver under context.Background and
// fails the test on its error, so a parity check always compares the
// driver's own rows with the serial oracle's.
func mustPar[R any](t *testing.T, drive func(context.Context, *core.Session, Params, int) (R, error), s *core.Session, p Params, workers int) R {
	t.Helper()
	got, err := drive(context.Background(), s, p, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return got
}

// TestParallelQueriesMatchSerial: Q1ParCtx/Q6ParCtx must produce the
// serial kernels' exact results at every worker count and layout.
func TestParallelQueriesMatchSerial(t *testing.T) {
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
			wantQ6 := q.Q6(s, p)
			for _, workers := range []int{1, 2, 4} {
				if got := mustPar(t, q.Q1ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ1) {
					t.Fatalf("Q1ParCtx(workers=%d) diverges from Q1:\n got %+v\nwant %+v", workers, got, wantQ1)
				}
				if got := mustPar(t, q.Q6ParCtx, s, p, workers); got != wantQ6 {
					t.Fatalf("Q6ParCtx(workers=%d) = %v, want %v", workers, got, wantQ6)
				}
			}
		})
	}
}

// joinWorkerCounts sweeps 1..NumCPU (and at least 1..4 so block-sharded
// merge paths are exercised even on small CI machines).
func joinWorkerCounts() []int {
	max := runtime.NumCPU()
	if max < 4 {
		max = 4
	}
	ws := make([]int, 0, max)
	for w := 1; w <= max; w++ {
		ws = append(ws, w)
	}
	return ws
}

// joinSF is larger than testSF so the join tests' serial baselines are
// non-empty and their scans span many blocks.
const joinSF = 0.004

func joinDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(joinSF, 42)
}

// TestParallelJoinQueriesMatchSerial: the Q3, Q5 and Q10 pipeline
// drivers (QnParCtx) must produce exactly the serial rows
// at every worker count and layout — the join kernels are shared, the
// parallel drivers only change who scans which block, where the group
// state lives and how it merges.
func TestParallelJoinQueriesMatchSerial(t *testing.T) {
	d := joinDataset(t)
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
			wantQ3 := q.Q3(s, p)
			wantQ5 := q.Q5(s, p)
			wantQ10 := q.Q10(s, p)
			if len(wantQ3) == 0 || len(wantQ5) == 0 || len(wantQ10) == 0 {
				t.Fatalf("serial baselines empty (Q3=%d Q5=%d Q10=%d rows): dataset too small to exercise the joins",
					len(wantQ3), len(wantQ5), len(wantQ10))
			}
			for _, workers := range joinWorkerCounts() {
				if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
					t.Fatalf("Q3ParCtx(workers=%d) diverges from Q3:\n got %+v\nwant %+v", workers, got, wantQ3)
				}
				if got := mustPar(t, q.Q5ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ5) {
					t.Fatalf("Q5ParCtx(workers=%d) diverges from Q5:\n got %+v\nwant %+v", workers, got, wantQ5)
				}
				if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
					t.Fatalf("Q10ParCtx(workers=%d) diverges from Q10:\n got %+v\nwant %+v", workers, got, wantQ10)
				}
			}
		})
	}
}

// TestParallelJoinMergeDeterminism: the parallel per-partition merge
// and the partition-sharded finishing passes must be invisible in the
// output — for Q3, Q5 and Q10 every worker count produces byte-identical
// result rows to the serial worker-order merge, and repeated runs at
// one worker count are identical to each other (the nondeterministic
// block-to-worker assignment must never leak into row order or values).
func TestParallelJoinMergeDeterminism(t *testing.T) {
	d := joinDataset(t)
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
	wantQ3, wantQ5, wantQ10 := q.Q3(s, p), q.Q5(s, p), q.Q10(s, p)
	for _, workers := range joinWorkerCounts() {
		for rep := 0; rep < 3; rep++ {
			if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
				t.Fatalf("Q3ParCtx(workers=%d) rep %d not byte-identical to serial merge", workers, rep)
			}
			if got := mustPar(t, q.Q5ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ5) {
				t.Fatalf("Q5ParCtx(workers=%d) rep %d not byte-identical to serial merge", workers, rep)
			}
			if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
				t.Fatalf("Q10ParCtx(workers=%d) rep %d not byte-identical to serial merge", workers, rep)
			}
		}
	}
	// The query object's arena pool is registered with the runtime: all
	// of the above must be visible in the stats snapshot.
	st := rt.StatsSnapshot()
	found := false
	for _, ap := range st.ArenaPools {
		if ap.Name == "tpch.SMCQueries" {
			found = true
			if ap.Leases == 0 || ap.Reuses == 0 {
				t.Fatalf("pool counters did not move across queries: %+v", ap)
			}
		}
	}
	if !found {
		t.Fatalf("tpch.SMCQueries pool not registered in runtime stats: %+v", st.ArenaPools)
	}
}

// TestParallelJoinConcurrentSerialQueries: concurrent *serial* queries
// on one SMCQueries must not race — each leases its own region from the
// pool (the old shared q.arena design made this a data race).
func TestParallelJoinConcurrentSerialQueries(t *testing.T) {
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
	wantQ3, wantQ4 := q.Q3(s, p), q.Q4(s, p)
	wantQ5, wantQ10 := q.Q5(s, p), q.Q10(s, p)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gs := rt.MustSession()
			defer gs.Close()
			for i := 0; i < 3; i++ {
				switch (g + i) % 4 {
				case 0:
					if got := q.Q3(gs, p); !reflect.DeepEqual(got, wantQ3) {
						t.Errorf("concurrent Q3 diverged")
					}
				case 1:
					if got := q.Q4(gs, p); !reflect.DeepEqual(got, wantQ4) {
						t.Errorf("concurrent Q4 diverged")
					}
				case 2:
					if got := q.Q5(gs, p); !reflect.DeepEqual(got, wantQ5) {
						t.Errorf("concurrent Q5 diverged")
					}
				default:
					if got := q.Q10(gs, p); !reflect.DeepEqual(got, wantQ10) {
						t.Errorf("concurrent Q10 diverged")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelJoinStress runs the parallel join queries — with their
// parallel merges and finishing passes — against concurrent add/remove
// churn and an active compactor.
// The churned lineitems are crafted to fail every query's filters (null
// order/part/supplier references, zero ship dates, non-'R' return
// flags), so the stable rows fully determine the answers: every parallel
// run must return exactly the serial baseline while blocks appear, empty
// and compact underneath it.
func TestParallelJoinStress(t *testing.T) {
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
	wantQ3, wantQ5, wantQ10 := q.Q3(s, p), q.Q5(s, p), q.Q10(s, p)

	stop := make(chan struct{})
	var fail atomic.Value
	var wg sync.WaitGroup

	// Churners: transient lineitems invisible to Q3/Q5/Q10.
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
			var pool []core.Ref[SLineitem]
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref, err := sdb.Lineitems.Add(cs, &SLineitem{
					OrderKey:   int64(1)<<40 | int64(w),
					ReturnFlag: 'N',
					LineStatus: 'F',
				})
				if err != nil {
					fail.Store(err.Error())
					return
				}
				pool = append(pool, ref)
				if len(pool) > 16 {
					victim := pool[0]
					pool = pool[1:]
					if err := sdb.Lineitems.Remove(cs, victim); err != nil {
						fail.Store(err.Error())
						return
					}
				}
			}
		}(w)
	}

	// Compactor loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := rt.CompactNow(); err != nil {
					fail.Store(err.Error())
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	runs := 0
	for time.Now().Before(deadline) && fail.Load() == nil {
		workers := 1 + runs%4
		if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
			t.Fatalf("run %d: Q3ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		if got := mustPar(t, q.Q5ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ5) {
			t.Fatalf("run %d: Q5ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
			t.Fatalf("run %d: Q10ParCtx(workers=%d) diverged under churn", runs, workers)
		}
		runs++
	}
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if runs == 0 {
		t.Fatal("no parallel join runs completed")
	}
}
