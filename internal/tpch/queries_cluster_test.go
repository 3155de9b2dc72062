package tpch

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// rekeyDateCorrelated returns a copy of the dataset with order keys
// reassigned in order-date order (and lineitems re-keyed and re-sorted
// to follow): the auto-increment shape of an OLTP feed, where key ranges
// and date ranges cluster together. dbgen's native orderkey↔date
// mapping is random, so every block spans the whole key domain and no
// key set could ever prune a block.
func rekeyDateCorrelated(d *Dataset) *Dataset {
	out := *d
	out.Orders = append([]OrderRow(nil), d.Orders...)
	sort.SliceStable(out.Orders, func(i, j int) bool {
		return out.Orders[i].OrderDate < out.Orders[j].OrderDate
	})
	newKey := make(map[int64]int64, len(out.Orders))
	for i := range out.Orders {
		nk := int64(i + 1)
		newKey[out.Orders[i].Key] = nk
		out.Orders[i].Key = nk
	}
	out.Lineitems = append([]LineitemRow(nil), d.Lineitems...)
	for i := range out.Lineitems {
		out.Lineitems[i].OrderKey = newKey[out.Lineitems[i].OrderKey]
	}
	sort.SliceStable(out.Lineitems, func(i, j int) bool {
		return out.Lineitems[i].OrderKey < out.Lineitems[j].OrderKey
	})
	return &out
}

// TestClusterPrunedQueriesMatchOracle is the pruned-query oracle sweep
// under clustered maintenance: a PackCluster runtime, upsert churn that
// scatters 30% of the lineitems into reclaimed slots heap-wide, then a
// maintenance pass that redistributes them by ship date — and every
// pruned parallel driver must still return byte-identical results to
// the serial oracles, across all layouts and 1..NumCPU workers.
func TestClusterPrunedQueriesMatchOracle(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect, core.Columnar} {
		layout := layout
		t.Run(layout.String(), func(t *testing.T) {
			rt := core.MustRuntime(core.Options{
				HeapBackend:         true,
				CompactionPacking:   core.PackCluster,
				CompactionThreshold: 0.85,
			})
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
			wantQ4 := q.Q4(s, p)
			wantQ6 := q.Q6(s, p)
			wantQ10 := q.Q10(s, p)

			// Upsert-scatter 30% of the lineitems: logically a no-op (the
			// same rows live on), physically a heap-wide re-shuffle that
			// widens every block's bounds. Lineitems are referenced by
			// nothing, so re-adding under a fresh ref is safe.
			type held struct {
				ref core.Ref[SLineitem]
				row SLineitem
			}
			var rows []held
			sdb.Lineitems.ForEach(s, func(r core.Ref[SLineitem], v *SLineitem) bool {
				rows = append(rows, held{ref: r, row: *v})
				return true
			})
			for i, h := range rows {
				if i%3 != 0 {
					continue
				}
				if err := sdb.Lineitems.Remove(s, h.ref); err != nil {
					t.Fatal(err)
				}
				if _, err := sdb.Lineitems.Add(s, &h.row); err != nil {
					t.Fatal(err)
				}
			}
			rt.Manager().TryAdvanceEpoch()
			if _, err := rt.CompactNow(); err != nil {
				t.Fatal(err)
			}

			for _, workers := range joinWorkerCounts() {
				if got := mustPar(t, q.Q1ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ1) {
					t.Fatalf("clustered heap: Q1ParCtx(workers=%d) diverges from serial Q1", workers)
				}
				if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
					t.Fatalf("clustered heap: Q3ParCtx(workers=%d) diverges from serial Q3", workers)
				}
				if got := mustPar(t, q.Q4ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ4) {
					t.Fatalf("clustered heap: Q4ParCtx(workers=%d) diverges from serial Q4", workers)
				}
				if got := mustPar(t, q.Q6ParCtx, s, p, workers); got != wantQ6 {
					t.Fatalf("clustered heap: Q6ParCtx(workers=%d) = %v, want %v", workers, got, wantQ6)
				}
				if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
					t.Fatalf("clustered heap: Q10ParCtx(workers=%d) diverges from serial Q10", workers)
				}
			}
		})
	}
}

// TestClusterCrossEdgePruning: on a date-correlated re-keyed load with
// many small blocks, the Q3/Q10 pipeline drivers must actually prune
// lineitem blocks through the distilled order-key sets (KeySetPruned
// moves), record key-set admissions (SynopsisOverlap moves), and still
// return byte-identical rows to the serial unpruned oracles. Q4's key
// set is dense over the order domain, so it asserts identity only.
func TestClusterCrossEdgePruning(t *testing.T) {
	d := rekeyDateCorrelated(testDataset(t))
	p := DefaultParams()
	rt := core.MustRuntime(core.Options{HeapBackend: true, BlockSize: 1 << 14})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	if sdb.Lineitems.Context().Blocks() < 8 {
		t.Fatalf("only %d lineitem blocks; cross-edge test needs a multi-block heap",
			sdb.Lineitems.Context().Blocks())
	}
	q := NewSMCQueries(sdb)
	wantQ3 := q.Q3(s, p)
	wantQ4 := q.Q4(s, p)
	wantQ10 := q.Q10(s, p)

	before := rt.StatsSnapshot()
	for _, workers := range []int{1, 2, 4} {
		if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
			t.Fatalf("cross-edge Q3ParCtx(workers=%d) diverges from serial Q3", workers)
		}
		if got := mustPar(t, q.Q4ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ4) {
			t.Fatalf("cross-edge Q4ParCtx(workers=%d) diverges from serial Q4", workers)
		}
		if got := mustPar(t, q.Q10ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ10) {
			t.Fatalf("cross-edge Q10ParCtx(workers=%d) diverges from serial Q10", workers)
		}
	}
	after := rt.StatsSnapshot()
	if after.KeySetPruned == before.KeySetPruned {
		t.Fatal("KeySetPruned did not move on a date-correlated heap")
	}
	if after.SynopsisOverlap == before.SynopsisOverlap {
		t.Fatal("SynopsisOverlap did not move")
	}
	// Key-set prunes are a subset of all synopsis prunes.
	if kp, bp := after.KeySetPruned-before.KeySetPruned, after.BlocksPruned-before.BlocksPruned; kp > bp {
		t.Fatalf("KeySetPruned (%d) exceeds BlocksPruned (%d)", kp, bp)
	}
}
