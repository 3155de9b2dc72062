package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/tpch"
	"repro/internal/types"
)

// The prune figure (beyond-paper): the block-synopsis skip-scan layer
// swept over predicate selectivity × heap fragmentation state, on a
// Q6-style windowed revenue scan over a ship-date-clustered lineitem
// heap (the append-in-event-time shape zone maps reward).
//
// Three heap states per selectivity:
//
//   - fresh: the date-sorted load as-is — block bounds are narrow,
//     disjoint date ranges, the best case for pruning.
//   - churned: an upsert phase (remove + re-add the same rows) scatters
//     late-date rows into reclaimed slots across the heap, widening
//     bounds (widen-only is stale-but-sound); then a retention phase
//     removes every row older than the 75th-percentile date, leaving
//     low-occupancy blocks whose stale bounds still advertise the old
//     dates they no longer hold.
//   - compacted: the churned heap after a Maintainer-style compaction
//     pass — targets rebuild their bounds exactly over the surviving
//     (recent) rows, so queries over old windows prune blocks the
//     churned heap still had to scan.
//
// Every point reports the pruned and unpruned latency of the same scan
// (identical kernel, identical result — asserted) plus the fraction of
// blocks the synopsis check skipped.

// PrunePoint is one (heap state, selectivity) measurement.
type PrunePoint struct {
	Workers        int     `json:"workers"`
	Heap           string  `json:"heap"` // fresh | churned | compacted
	SelectivityPct float64 `json:"selectivity_pct"`
	// PrunedMs / UnprunedMs are the same windowed scan with and without
	// predicate pushdown.
	PrunedMs   float64 `json:"pruned_ms"`
	UnprunedMs float64 `json:"unpruned_ms"`
	Speedup    float64 `json:"speedup"`
	// BlocksTotal is the heap's lineitem block count at measurement time;
	// BlocksPruned/BlocksScanned are one pruned run's synopsis decisions.
	BlocksTotal   int     `json:"blocks_total"`
	BlocksPruned  int64   `json:"blocks_pruned"`
	BlocksScanned int64   `json:"blocks_scanned"`
	PrunedFrac    float64 `json:"pruned_frac"`
}

// PruneResult is the skip-scan figure. Detail carries the per-(heap,
// selectivity) measurements; Points holds one flat workers=1 point with
// every series as its own "<pruned|unpruned>_<heap>_<sel>_ms" key, so
// the benchdiff gate — which diffs the metric keys of the first
// workers=1 point — covers all twelve measurements, not just the first.
type PruneResult struct {
	SF     float64              `json:"sf"`
	CPUs   int                  `json:"cpus"`
	Reps   int                  `json:"reps"`
	Meta   Meta                 `json:"meta"`
	Points []map[string]float64 `json:"points"`
	Detail []PrunePoint         `json:"detail"`
}

// pruneEnv is one loaded lineitem heap in a given fragmentation state.
type pruneEnv struct {
	rt *core.Runtime
	s  *core.Session
	db *tpch.SMCDB
	q  *tpch.SMCQueries
}

func (e *pruneEnv) Close() {
	e.s.Close()
	e.rt.Close()
}

// window runs the one-worker windowed revenue scan over [lo, hi], with or
// without synopsis pushdown.
func (e *pruneEnv) window(lo, hi types.Date, pushdown bool) (decimal.Dec128, error) {
	return e.q.Q6WindowParCtx(context.Background(), e.s, lo, hi, 1, pushdown)
}

// checkWindow runs the window once pruned and once unpruned, requires
// equal sums, and returns the pruned run's synopsis decisions.
func (e *pruneEnv) checkWindow(lo, hi types.Date) (pruned, scanned int64, err error) {
	before := e.rt.StatsSnapshot()
	p, err := e.window(lo, hi, true)
	after := e.rt.StatsSnapshot()
	if err != nil {
		return 0, 0, err
	}
	u, err := e.window(lo, hi, false)
	if err != nil {
		return 0, 0, err
	}
	if p != u {
		return 0, 0, fmt.Errorf("pruned sum %v != unpruned %v", p, u)
	}
	return after.BlocksPruned - before.BlocksPruned, after.BlocksScanned - before.BlocksScanned, nil
}

// timeWindow is the window's median time in milliseconds over reps runs.
func (e *pruneEnv) timeWindow(reps int, lo, hi types.Date, pushdown bool) (float64, error) {
	d, err := medianErr(reps, func() (err error) {
		sinkDec, err = e.window(lo, hi, pushdown)
		return err
	})
	return msF(d), err
}

// newPruneEnv loads the date-sorted dataset row-indirect and optionally
// applies the churn (upsert + retention trim past cutoff) and compaction
// phases. The churn is deterministic (seeded rng), so the churned and
// compacted heaps hold identical rows.
func newPruneEnv(o Options, data *tpch.Dataset, cutoff types.Date, churn, compact bool) (*pruneEnv, error) {
	rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
	if err != nil {
		return nil, err
	}
	s, err := rt.NewSession()
	if err != nil {
		rt.Close()
		return nil, err
	}
	db, err := tpch.LoadSMC(rt, s, data, core.RowIndirect)
	if err != nil {
		s.Close()
		rt.Close()
		return nil, err
	}
	env := &pruneEnv{rt: rt, s: s, db: db, q: tpch.NewSMCQueries(db)}
	if !churn {
		return env, nil
	}

	type held struct {
		ref core.Ref[tpch.SLineitem]
		row tpch.SLineitem
	}
	var rows []held
	db.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		rows = append(rows, held{ref: r, row: *v})
		return true
	})

	// Upsert churn: remove and re-add the same row for a random 30%
	// sample. Re-adds land in reclaimed slots of whatever block the
	// session holds, so late-date rows scatter across early-date blocks,
	// widening their bounds heap-wide.
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	perm := rng.Perm(len(rows))
	upserts := len(rows) * 30 / 100
	for _, i := range perm[:upserts] {
		if err := db.Lineitems.Remove(s, rows[i].ref); err != nil {
			env.Close()
			return nil, err
		}
		if _, err := db.Lineitems.Add(s, &rows[i].row); err != nil {
			env.Close()
			return nil, err
		}
	}

	// Retention trim plus general attrition: drop everything shipped
	// before the cutoff (the 75th-percentile date — classic time-windowed
	// retention) and a random three quarters of the recent rows. Early
	// blocks keep only the churn phase's scattered late re-adds, recent
	// blocks drop under the compaction threshold too — so the whole heap
	// is fragmented, every surviving block's bounds are stale-wide, and a
	// compaction pass can rewrite (and re-tighten) essentially all of it.
	var victims []core.Ref[tpch.SLineitem]
	db.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		if v.ShipDate < cutoff || rng.Intn(4) != 0 {
			victims = append(victims, r)
		}
		return true
	})
	for _, r := range victims {
		if err := db.Lineitems.Remove(s, r); err != nil {
			env.Close()
			return nil, err
		}
	}
	if compact {
		rt.Manager().TryAdvanceEpoch()
		if _, err := rt.CompactNow(); err != nil {
			env.Close()
			return nil, err
		}
	}
	return env, nil
}

// FigurePrune measures pruned vs unpruned Q6-style windowed scans at
// 1/10/50/100% date selectivity over fresh, churned and
// churned-then-compacted heaps. All points run at workers=1 (the stable
// serial baseline the perf gate diffs); results of the pruned and
// unpruned runs are asserted identical per point.
func FigurePrune(o Options) (*PruneResult, error) {
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)

	// Date-sorted load: the append-in-event-time shape.
	sorted := *data
	sorted.Lineitems = append([]tpch.LineitemRow(nil), data.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	n := len(sorted.Lineitems)
	if n == 0 {
		return nil, fmt.Errorf("empty lineitem table at SF=%v", o.SF)
	}
	quantile := func(pct int) types.Date {
		i := n * pct / 100
		if i >= n {
			i = n - 1
		}
		return sorted.Lineitems[i].ShipDate
	}
	minDate := sorted.Lineitems[0].ShipDate
	retention := quantile(75)

	res := &PruneResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps, Meta: CurrentMeta()}
	gate := map[string]float64{"workers": 1}
	res.Points = []map[string]float64{gate}
	heaps := []struct {
		name           string
		churn, compact bool
	}{
		{"fresh", false, false},
		{"churned", true, false},
		{"compacted", true, true},
	}
	selectivities := []int{1, 10, 50, 100}
	for _, h := range heaps {
		env, err := newPruneEnv(o, &sorted, retention, h.churn, h.compact)
		if err != nil {
			return nil, err
		}
		for _, sel := range selectivities {
			hi := quantile(sel)
			if sel == 100 {
				hi = types.Date(1 << 30) // full-range window
			}
			pt := PrunePoint{Workers: 1, Heap: h.name, SelectivityPct: float64(sel)}
			// One instrumented run pins the pruning decision counts and
			// checks pruned == unpruned.
			pt.BlocksPruned, pt.BlocksScanned, err = env.checkWindow(minDate, hi)
			if err == nil {
				pt.PrunedMs, err = env.timeWindow(o.Reps, minDate, hi, true)
			}
			if err == nil {
				pt.UnprunedMs, err = env.timeWindow(o.Reps, minDate, hi, false)
			}
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("%s heap, sel %d%%: %w", h.name, sel, err)
			}
			pt.BlocksTotal = env.db.Lineitems.Context().Blocks()
			if d := pt.BlocksPruned + pt.BlocksScanned; d > 0 {
				pt.PrunedFrac = float64(pt.BlocksPruned) / float64(d)
			}
			if pt.PrunedMs > 0 {
				pt.Speedup = pt.UnprunedMs / pt.PrunedMs
			}
			gate[fmt.Sprintf("pruned_%s_%d_ms", h.name, sel)] = pt.PrunedMs
			gate[fmt.Sprintf("unpruned_%s_%d_ms", h.name, sel)] = pt.UnprunedMs
			res.Detail = append(res.Detail, pt)
		}
		env.Close()
	}
	return res, nil
}

// Render emits the sweep table.
func (r *PruneResult) Render() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Skip-scan pruning — SF=%v, %d CPUs (Q6-style window, workers=1)", r.SF, r.CPUs),
		Columns: []string{"heap", "sel %", "pruned ms", "unpruned ms", "×", "pruned frac", "blocks"},
		Notes: []string{
			"bounds widen on insert, stay stale-but-sound on remove, rebuild exactly on compaction",
			"churned = upsert scatter + retention trim; compacted = churned + one compaction pass",
		},
	}
	for _, pt := range r.Detail {
		t.Rows = append(t.Rows, []string{
			pt.Heap,
			fmt.Sprintf("%.0f", pt.SelectivityPct),
			fmtMs(pt.PrunedMs),
			fmtMs(pt.UnprunedMs),
			fmt.Sprintf("%.2f", pt.Speedup),
			fmt.Sprintf("%.2f", pt.PrunedFrac),
			fmt.Sprintf("%d/%d", pt.BlocksPruned, pt.BlocksTotal),
		})
	}
	return t
}

// WriteJSON emits the machine-readable result (BENCH_prune.json).
func (r *PruneResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
