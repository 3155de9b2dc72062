package tpch

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
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
// return byte-identical rows to the serial unpruned oracles.
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
	wantQ10 := q.Q10(s, p)

	before := rt.StatsSnapshot()
	for _, workers := range []int{1, 2, 4} {
		if got := mustPar(t, q.Q3ParCtx, s, p, workers); !reflect.DeepEqual(got, wantQ3) {
			t.Fatalf("cross-edge Q3ParCtx(workers=%d) diverges from serial Q3", workers)
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

// Scale of TestClusterSteadyStatePruning: small blocks keep the
// retained heap many blocks wide at a small scale factor, so a
// 1%-selectivity window covers about one block of it.
const (
	steadySF        = 0.01
	steadyBlockSize = 1 << 15
)

// upsertScatter removes and re-adds a random 30% of the lineitems: the
// rows live on unchanged, but the re-adds land in reclaimed slots
// heap-wide, widening every block's bounds — the churn shape that
// degrades zone maps. Lineitems are referenced by nothing, so re-adding
// under a fresh ref is safe.
func upsertScatter(t *testing.T, sdb *SMCDB, s *core.Session, rng *rand.Rand) {
	t.Helper()
	type held struct {
		ref core.Ref[SLineitem]
		row SLineitem
	}
	var rows []held
	sdb.Lineitems.ForEach(s, func(r core.Ref[SLineitem], v *SLineitem) bool {
		rows = append(rows, held{ref: r, row: *v})
		return true
	})
	for _, i := range rng.Perm(len(rows))[:len(rows)*30/100] {
		if err := sdb.Lineitems.Remove(s, rows[i].ref); err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.Lineitems.Add(s, &rows[i].row); err != nil {
			t.Fatal(err)
		}
	}
}

// windowPrunedFrac runs a 1%-selectivity ship-date window over the
// surviving rows once pruned and once unpruned, requires equal sums,
// and returns the fraction of block decisions the pruned run pruned.
func windowPrunedFrac(t *testing.T, rt *core.Runtime, sdb *SMCDB, q *SMCQueries, s *core.Session) float64 {
	t.Helper()
	var dates []types.Date
	sdb.Lineitems.ForEach(s, func(_ core.Ref[SLineitem], v *SLineitem) bool {
		dates = append(dates, v.ShipDate)
		return true
	})
	if len(dates) == 0 {
		t.Fatal("no surviving rows")
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	lo, hi := dates[0], dates[len(dates)/100]
	ctx := context.Background()
	before := rt.StatsSnapshot()
	pruned, err := q.Q6WindowParCtx(ctx, s, lo, hi, 1, true)
	after := rt.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := q.Q6WindowParCtx(ctx, s, lo, hi, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != unpruned {
		t.Fatalf("pruned window sum %v != unpruned %v", pruned, unpruned)
	}
	p, n := after.BlocksPruned-before.BlocksPruned, after.BlocksScanned-before.BlocksScanned
	if p+n == 0 {
		t.Fatal("window scan made no block decisions")
	}
	return float64(p) / float64(p+n)
}

// TestClusterSteadyStatePruning pins clustered maintenance's
// steady-state guarantee: from a churned retention heap (date-ordered
// load, 30% upsert scatter, oldest 75% trimmed), ONE PackCluster
// maintenance pass brings a 1%-selectivity window to >= 90% of blocks
// pruned, and it stays there as upsert churn keeps scattering 30% of
// the rows between passes (0.95, 0.97, 0.97 at this scale). Size-only
// packing on the same heap reads 0.57, 0.33, 0.23, so the floor catches
// a planner that stops sorting by the cluster key. mem's
// TestClusterPackingRedistributes covers cluster-vs-size monotonicity.
func TestClusterSteadyStatePruning(t *testing.T) {
	d := Generate(steadySF, 42)
	sorted := *d
	sorted.Lineitems = append([]LineitemRow(nil), d.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	retention := sorted.Lineitems[len(sorted.Lineitems)*75/100].ShipDate

	rt := core.MustRuntime(core.Options{
		HeapBackend: true,
		BlockSize:   steadyBlockSize,
		// The 30% upsert scatter leaves blocks near 70% occupancy; a
		// maintenance-aggressive cutoff admits them all to the first
		// pass, the pass the guarantee is stated over.
		CompactionPacking:   core.PackCluster,
		CompactionThreshold: 0.85,
	})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, &sorted, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSMCQueries(sdb)
	rng := rand.New(rand.NewSource(43))
	upsertScatter(t, sdb, s, rng)
	var victims []core.Ref[SLineitem]
	sdb.Lineitems.ForEach(s, func(r core.Ref[SLineitem], v *SLineitem) bool {
		if v.ShipDate < retention {
			victims = append(victims, r)
		}
		return true
	})
	for _, r := range victims {
		if err := sdb.Lineitems.Remove(s, r); err != nil {
			t.Fatal(err)
		}
	}

	for cycle := 1; cycle <= 3; cycle++ {
		rt.Manager().TryAdvanceEpoch()
		moved, err := rt.CompactNow()
		if err != nil {
			t.Fatal(err)
		}
		frac := windowPrunedFrac(t, rt, sdb, q, s)
		t.Logf("cycle %d: moved=%d blocks=%d rows=%d pruned frac %.2f", cycle, moved,
			sdb.Lineitems.Context().Blocks(), sdb.Lineitems.Context().Len(), frac)
		if frac < 0.90 {
			t.Fatalf("cycle %d: clustered pruned fraction %.2f < 0.90", cycle, frac)
		}
		if cycle < 3 {
			upsertScatter(t, sdb, s, rng)
		}
	}
}
