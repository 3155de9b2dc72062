package bench

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/tpch"
)

// upsertScatter removes and re-adds a random 30% of the lineitems: the
// rows live on unchanged, but the re-adds land in reclaimed slots
// heap-wide, widening every block's bounds — the churn shape that
// degrades zone maps.
func upsertScatter(t *testing.T, env *clusterEnv, rng *rand.Rand) {
	t.Helper()
	type held struct {
		ref core.Ref[tpch.SLineitem]
		row tpch.SLineitem
	}
	var rows []held
	env.db.Lineitems.ForEach(env.s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		rows = append(rows, held{ref: r, row: *v})
		return true
	})
	for _, i := range rng.Perm(len(rows))[:len(rows)*30/100] {
		if err := env.db.Lineitems.Remove(env.s, rows[i].ref); err != nil {
			t.Fatal(err)
		}
		if _, err := env.db.Lineitems.Add(env.s, &rows[i].row); err != nil {
			t.Fatal(err)
		}
	}
}

// clusterFrac runs one maintenance pass and measures the pruned block
// fraction of a 1%-selectivity window scan over the surviving date
// domain, asserting the pruned and unpruned sums are identical.
func clusterFrac(t *testing.T, env *clusterEnv, label string) float64 {
	t.Helper()
	env.rt.Manager().TryAdvanceEpoch()
	moved, err := env.rt.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: moved=%d blocks=%d rows=%d", label, moved,
		env.db.Lineitems.Context().Blocks(), env.db.Lineitems.Context().Len())
	dates := survivorDates(env)
	if len(dates) == 0 {
		t.Fatalf("%s: no surviving rows", label)
	}
	lo, hi := dates[0], dates[len(dates)/100]
	p, s, err := env.checkWindow(lo, hi)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if p+s == 0 {
		t.Fatalf("%s: window scan made no block decisions", label)
	}
	return float64(p) / float64(p+s)
}

// TestClusterSteadyStatePruning pins the tentpole's steady-state
// guarantee: from a churned retention heap, clustered compaction reaches
// >= 90% blocks pruned on a 1%-selectivity window after ONE maintenance
// pass, and stays there as upsert churn keeps scattering 30% of the
// rows between passes. Size-only packing on the identical heap and
// churn sequence never prunes more than the clustered run (the
// monotonicity half of the contract).
func TestClusterSteadyStatePruning(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two SF=0.05 heaps")
	}
	o := Options{SF: 0.05, Seed: 42, Reps: 1}.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)
	sorted := *data
	sorted.Lineitems = append([]tpch.LineitemRow(nil), data.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	n := len(sorted.Lineitems)
	retention := sorted.Lineitems[n*75/100].ShipDate

	envC, err := newClusterEnv(o, &sorted, retention, core.PackCluster)
	if err != nil {
		t.Fatal(err)
	}
	defer envC.Close()
	envS, err := newClusterEnv(o, &sorted, retention, core.PackSize)
	if err != nil {
		t.Fatal(err)
	}
	defer envS.Close()

	rngC := rand.New(rand.NewSource(43))
	rngS := rand.New(rand.NewSource(43))
	for cycle := 1; cycle <= 3; cycle++ {
		fc := clusterFrac(t, envC, "cluster")
		fs := clusterFrac(t, envS, "size")
		t.Logf("cycle %d: cluster pruned frac %.2f, size %.2f", cycle, fc, fs)
		if fc < 0.90 {
			t.Fatalf("cycle %d: clustered pruned fraction %.2f < 0.90", cycle, fc)
		}
		if fc < fs {
			t.Fatalf("cycle %d: clustered pruned fraction %.2f below size-only %.2f", cycle, fc, fs)
		}
		if cycle < 3 {
			upsertScatter(t, envC, rngC)
			upsertScatter(t, envS, rngS)
		}
	}
}
