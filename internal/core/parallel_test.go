package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

type scanRow struct {
	ID   int64
	Val  int64
	Name string
}

func allLayoutsPar() []Layout { return []Layout{RowIndirect, RowDirect, Columnar} }

func TestParallelForEachMatchesForEach(t *testing.T) {
	for _, layout := range allLayoutsPar() {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			coll := MustCollection[scanRow](rt, "rows", layout)
			const n = 2000
			for i := 0; i < n; i++ {
				coll.MustAdd(s, &scanRow{ID: int64(i), Val: int64(i * 3), Name: fmt.Sprintf("r%d", i)})
			}
			serial := make(map[int64]int64, n)
			coll.ForEach(s, func(_ Ref[scanRow], v *scanRow) bool {
				serial[v.ID] = v.Val
				return true
			})
			for _, workers := range []int{1, 2, 4} {
				var mu sync.Mutex
				par := make(map[int64]int64, n)
				dups := 0
				err := coll.ParallelForEachPred(s, workers, nil, func(_ int, _ Ref[scanRow], v *scanRow) bool {
					mu.Lock()
					if _, ok := par[v.ID]; ok {
						dups++
					}
					par[v.ID] = v.Val
					mu.Unlock()
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if dups != 0 {
					t.Fatalf("workers=%d: %d duplicate visits", workers, dups)
				}
				if len(par) != len(serial) {
					t.Fatalf("workers=%d: saw %d rows, want %d", workers, len(par), len(serial))
				}
				for id, val := range serial {
					if par[id] != val {
						t.Fatalf("workers=%d: row %d = %d, want %d", workers, id, par[id], val)
					}
				}
			}
		})
	}
}

func TestParallelForEachEarlyStop(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := MustCollection[scanRow](rt, "rows", RowIndirect)
	for i := 0; i < 5000; i++ {
		coll.MustAdd(s, &scanRow{ID: int64(i)})
	}
	var visited atomic.Int64
	err := coll.ParallelForEachPred(s, 4, nil, func(_ int, _ Ref[scanRow], _ *scanRow) bool {
		return visited.Add(1) < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	// Early stop is cooperative at block granularity: each worker may
	// finish its current block, but the scan must not run to completion.
	if v := visited.Load(); v >= 5000 {
		t.Fatalf("early stop visited all %d rows", v)
	}
}

func TestParallelAggregate(t *testing.T) {
	for _, layout := range allLayoutsPar() {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			coll := MustCollection[scanRow](rt, "rows", layout)
			const n = 3000
			want := int64(0)
			for i := 0; i < n; i++ {
				coll.MustAdd(s, &scanRow{ID: int64(i), Val: int64(i)})
				want += int64(i)
			}
			for _, workers := range []int{1, 3, 4} {
				got, err := ParallelAggregatePred(coll, s, workers, nil,
					func(int) int64 { return 0 },
					func(acc int64, _ Ref[scanRow], v *scanRow) int64 { return acc + v.Val },
					func(a, b int64) int64 { return a + b },
				)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
				}
			}
		})
	}
}

func TestParallelAggregateEmpty(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := MustCollection[scanRow](rt, "rows", RowIndirect)
	got, err := ParallelAggregatePred(coll, s, 4, nil,
		func(int) int64 { return 7 },
		func(acc int64, _ Ref[scanRow], v *scanRow) int64 { return acc + v.Val },
		func(a, b int64) int64 { return a + b },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("empty aggregate = %d, want init value 7", got)
	}
}

// TestParallelForEachStress is the §5.2 satellite stress test:
// ParallelForEachPred runs concurrently with Add/Remove churn and an active
// background compactor, asserting exactly-once visitation — no
// duplicates ever, and no lost pre-move objects (the stable population
// must be seen exactly once per scan) — across pinned and post-state
// compaction groups. Run it under -race.
func TestParallelForEachStress(t *testing.T) {
	for _, layout := range allLayoutsPar() {
		t.Run(layout.String(), func(t *testing.T) {
			rt := MustRuntime(Options{
				BlockSize:        1 << 13,
				ReclaimThreshold: 0.10,
				HeapBackend:      true,
			})
			defer rt.Close()
			coll := MustCollection[scanRow](rt, "rows", layout)

			s := rt.MustSession()
			defer s.Close()
			const stableCount = 400
			for i := 0; i < stableCount; i++ {
				coll.MustAdd(s, &scanRow{ID: int64(i), Val: int64(i), Name: "stable"})
			}

			stopCompactor := rt.StartMaintainer(mem.MaintainerConfig{Interval: time.Millisecond}).Stop
			defer stopCompactor()

			stop := make(chan struct{})
			var fail atomic.Value
			var wg sync.WaitGroup

			// Churner: adds transient rows and removes most of them,
			// keeping blocks sparse so the compactor always has work.
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
					next := int64(1)<<40 | int64(w)<<32
					type pair struct {
						id  int64
						ref Ref[scanRow]
					}
					var pool []pair
					for {
						select {
						case <-stop:
							return
						default:
						}
						id := next
						next++
						ref, err := coll.Add(cs, &scanRow{ID: id, Name: "churn"})
						if err != nil {
							fail.Store(err.Error())
							return
						}
						pool = append(pool, pair{id, ref})
						if len(pool) > 8 {
							victim := pool[0]
							pool = pool[1:]
							if err := coll.Remove(cs, victim.ref); err != nil {
								fail.Store(fmt.Sprintf("remove %#x: %v", victim.id, err))
								return
							}
						}
					}
				}(w)
			}

			// Scanner: repeated 4-worker ParallelForEachPred passes.
			coord := rt.MustSession()
			defer coord.Close()
			deadline := time.Now().Add(500 * time.Millisecond)
			scans := 0
			for time.Now().Before(deadline) && fail.Load() == nil {
				var mu sync.Mutex
				counts := make(map[int64]int)
				err := coll.ParallelForEachPred(coord, 4, nil, func(_ int, _ Ref[scanRow], v *scanRow) bool {
					mu.Lock()
					counts[v.ID]++
					mu.Unlock()
					return true
				})
				if err != nil {
					t.Fatalf("scan %d: %v", scans, err)
				}
				for id, n := range counts {
					if n != 1 {
						t.Fatalf("scan %d: id %#x visited %d times", scans, id, n)
					}
				}
				for i := 0; i < stableCount; i++ {
					if counts[int64(i)] != 1 {
						t.Fatalf("scan %d: stable id %d visited %d times", scans, i, counts[int64(i)])
					}
				}
				scans++
			}
			close(stop)
			wg.Wait()
			if msg := fail.Load(); msg != nil {
				t.Fatal(msg)
			}
			if scans == 0 {
				t.Fatal("no scans completed")
			}
		})
	}
}

// TestParallelGroupBy: keyed partial states must match a serial group-by
// exactly, at every layout and worker count, including filtered rows.
func TestParallelGroupBy(t *testing.T) {
	for _, layout := range allLayoutsPar() {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			coll := MustCollection[scanRow](rt, "rows", layout)
			const n = 3000
			type agg struct {
				sum   int64
				count int64
			}
			want := make(map[int64]agg)
			for i := 0; i < n; i++ {
				coll.MustAdd(s, &scanRow{ID: int64(i), Val: int64(i * 2)})
				if i%5 == 0 {
					continue // filtered below
				}
				k := int64(i % 17)
				a := want[k]
				a.sum += int64(i * 2)
				a.count++
				want[k] = a
			}
			for _, workers := range []int{1, 3, 4} {
				got, err := ParallelGroupBy(coll, s, workers,
					func(_ Ref[scanRow], v *scanRow) (int64, bool) {
						if v.ID%5 == 0 {
							return 0, false
						}
						return v.ID % 17, true
					},
					func(acc agg, _ Ref[scanRow], v *scanRow) agg {
						acc.sum += v.Val
						acc.count++
						return acc
					},
					func(a, b agg) agg { return agg{sum: a.sum + b.sum, count: a.count + b.count} },
				)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d groups, want %d", workers, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("workers=%d: group %d = %+v, want %+v", workers, k, got[k], w)
					}
				}
			}
		})
	}
}

// TestParallelGroupByEmpty: an empty collection yields an empty map, not
// nil panics.
func TestParallelGroupByEmpty(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := MustCollection[scanRow](rt, "rows", RowIndirect)
	got, err := ParallelGroupBy(coll, s, 4,
		func(_ Ref[scanRow], v *scanRow) (int64, bool) { return v.ID, true },
		func(acc int64, _ Ref[scanRow], v *scanRow) int64 { return acc + v.Val },
		func(a, b int64) int64 { return a + b },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty group-by returned %d groups", len(got))
	}
}
