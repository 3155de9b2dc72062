package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/tpch"
	"repro/internal/types"
)

// The cluster figure (beyond-paper): synopsis-aware clustered compaction
// versus size-only packing, swept over repeated churn → maintenance
// cycles, plus the cross-edge semi-join pruning the clustered key
// domains enable on the compiled join queries.
//
// Part one — steady-state skip-scan recovery. Both packing modes start
// from the same churned retention heap (upsert scatter + date trim) and
// then run identical churn → compaction cycles: each cycle upserts a
// random 30% sample (re-adds land in reclaimed slots heap-wide, widening
// bounds) and trims a random 45% (retention attrition, which keeps
// blocks under the compaction threshold so every maintenance pass can
// rewrite them). Size-only packing rebuilds target
// bounds exactly but over arbitrary (fullest-first) source mixes, so
// each target spans most of the surviving key domain; clustered packing
// groups key-adjacent blocks and moves rows in key order, so targets
// recover tight, near-disjoint ranges at every pass. The measured
// quantity is the pruned fraction (and latency) of a windowed Q6-style
// scan at 1% / 10% selectivity over the *surviving* ship-date domain,
// re-derived from the live rows each cycle so selectivity stays honest
// as retention shrinks the heap.
//
// Part two — cross-edge pruning. On a fresh (unchurned) heap the Q3/Q10
// pipeline drivers take the order-side key set from the Key synopsis
// bounds of the orders blocks their date predicate admits (Q4 from its
// late-lineitem keys) as a mem.KeySetPredicate over the next edge's key
// synopses; the figure reports the pruned parallel latency against the
// serial unpruned oracle plus the KeySetPruned/SynopsisOverlap decision
// counts, with results asserted identical. Block-granular key ranges are
// coarser than the qualifying keys, so a block at a date-window edge
// can survive where a row-level key set would have pruned it.

// ClusterPoint is one (packing, cycle, selectivity) measurement of the
// churn → maintenance sweep.
type ClusterPoint struct {
	Packing        string // size | cluster
	Cycle          int    // maintenance passes completed
	SelectivityPct float64
	Rows           int // surviving lineitem rows
	// PrunedMs / UnprunedMs are the same windowed scan with and without
	// predicate pushdown.
	PrunedMs   float64
	UnprunedMs float64
	Speedup    float64
	// BlocksTotal is the lineitem block count at measurement time;
	// BlocksPruned/BlocksScanned are one pruned run's synopsis decisions.
	BlocksTotal   int
	BlocksPruned  int64
	BlocksScanned int64
	PrunedFrac    float64
}

// ClusterJoinPoint is one cross-edge semi-join pruning measurement.
type ClusterJoinPoint struct {
	Query string // q3 | q4 | q10
	// PrunedMs is the pipeline driver with key-set pruning at workers=1;
	// SerialMs is the serial unpruned oracle producing identical rows.
	PrunedMs float64
	SerialMs float64
	Speedup  float64
	// One instrumented run's key-set decisions: blocks pruned because no
	// key-set range overlapped their key synopsis, and blocks
	// admitted with at least one overlapping key-set constraint.
	KeySetPruned    int64
	SynopsisOverlap int64
}

// ClusterResult is the clustered-compaction figure.
type ClusterResult struct {
	SF    float64
	CPUs  int
	Reps  int
	Sweep []ClusterPoint
	Joins []ClusterJoinPoint
}

// sinkRows defeats dead-code elimination in the join measurements.
var sinkRows int

// clusterMaintThreshold is the cluster sweep's compaction threshold: a
// maintenance-aggressive deployment where every churned block stays
// rewritable (the default 30% models lazier setups). The 30% upsert
// scatter leaves blocks near 70% occupancy, so a 0.85 cutoff admits
// them all to the very first maintenance pass — the pass the steady-
// state guarantee is stated over.
const clusterMaintThreshold = 0.85

// clusterEnv is one loaded lineitem heap under one packing mode.
type clusterEnv struct {
	rt *core.Runtime
	s  *core.Session
	db *tpch.SMCDB
	q  *tpch.SMCQueries
}

func (e *clusterEnv) Close() {
	e.s.Close()
	e.rt.Close()
}

// window runs the one-worker windowed revenue scan over [lo, hi], with or
// without synopsis pushdown.
func (e *clusterEnv) window(lo, hi types.Date, pushdown bool) (decimal.Dec128, error) {
	return e.q.Q6WindowParCtx(context.Background(), e.s, lo, hi, 1, pushdown)
}

// checkWindow runs the window once pruned and once unpruned, requires
// equal sums, and returns the pruned run's synopsis decisions.
func (e *clusterEnv) checkWindow(lo, hi types.Date) (pruned, scanned int64, err error) {
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
func (e *clusterEnv) timeWindow(reps int, lo, hi types.Date, pushdown bool) (float64, error) {
	d, err := medianErr(reps, func() (err error) {
		sinkDec, err = e.window(lo, hi, pushdown)
		return err
	})
	return msF(d), err
}

// newClusterEnv loads the date-sorted dataset row-indirect under the
// given packing mode and applies the initial churn: a 30% upsert
// scatter followed by a retention trim past cutoff. Both packing series
// see the identical (seeded) churn.
func newClusterEnv(o Options, data *tpch.Dataset, cutoff types.Date, packing core.PackingMode) (*clusterEnv, error) {
	rt, err := core.NewRuntime(core.Options{
		HeapBackend:         o.HeapBackend,
		CompactionPacking:   packing,
		CompactionThreshold: clusterMaintThreshold,
	})
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
	env := &clusterEnv{rt: rt, s: s, db: db, q: tpch.NewSMCQueries(db)}

	type held struct {
		ref core.Ref[tpch.SLineitem]
		row tpch.SLineitem
	}
	var rows []held
	db.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		rows = append(rows, held{ref: r, row: *v})
		return true
	})
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	perm := rng.Perm(len(rows))
	for _, i := range perm[:len(rows)*30/100] {
		if err := db.Lineitems.Remove(s, rows[i].ref); err != nil {
			env.Close()
			return nil, err
		}
		if _, err := db.Lineitems.Add(s, &rows[i].row); err != nil {
			env.Close()
			return nil, err
		}
	}
	var victims []core.Ref[tpch.SLineitem]
	db.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		if v.ShipDate < cutoff {
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
	return env, nil
}

// clusterChurn runs one steady-state churn cycle: upsert-scatter a
// random 30% sample (re-adds land in reclaimed slots heap-wide, widening
// bounds) and trim a random 45% (retention attrition). Deterministic
// under the caller's rng, so both packing series churn identically.
func clusterChurn(env *clusterEnv, rng *rand.Rand) error {
	type held struct {
		ref core.Ref[tpch.SLineitem]
		row tpch.SLineitem
	}
	var rows []held
	env.db.Lineitems.ForEach(env.s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		rows = append(rows, held{ref: r, row: *v})
		return true
	})
	perm := rng.Perm(len(rows))
	for _, i := range perm[:len(rows)*30/100] {
		if err := env.db.Lineitems.Remove(env.s, rows[i].ref); err != nil {
			return err
		}
		if _, err := env.db.Lineitems.Add(env.s, &rows[i].row); err != nil {
			return err
		}
	}
	var victims []core.Ref[tpch.SLineitem]
	env.db.Lineitems.ForEach(env.s, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		if rng.Intn(100) < 45 {
			victims = append(victims, r)
		}
		return true
	})
	for _, r := range victims {
		if err := env.db.Lineitems.Remove(env.s, r); err != nil {
			return err
		}
	}
	return nil
}

// survivorDates snapshots the surviving ship dates, sorted.
func survivorDates(env *clusterEnv) []types.Date {
	var dates []types.Date
	env.db.Lineitems.ForEach(env.s, func(_ core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		dates = append(dates, v.ShipDate)
		return true
	})
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	return dates
}

// clusterCycles is the number of churn → maintenance cycles measured.
const clusterCycles = 3

// FigureCluster measures synopsis-aware clustered compaction against
// size-only packing across churn → maintenance cycles (pruned fraction
// and latency of 1%/10%-selectivity windowed scans over the surviving
// date domain, results asserted identical to the unpruned runs), then
// the cross-edge key-set pruning of Q3/Q4/Q10 against their serial
// oracles. All points run at workers=1.
func FigureCluster(o Options) (*ClusterResult, error) {
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)

	sorted := *data
	sorted.Lineitems = append([]tpch.LineitemRow(nil), data.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	n := len(sorted.Lineitems)
	if n == 0 {
		return nil, fmt.Errorf("empty lineitem table at SF=%v", o.SF)
	}
	retention := sorted.Lineitems[min(n*75/100, n-1)].ShipDate

	res := &ClusterResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps}

	packings := []struct {
		name string
		mode core.PackingMode
	}{
		{"size", core.PackSize},
		{"cluster", core.PackCluster},
	}
	selectivities := []int{1, 10}
	for _, pk := range packings {
		env, err := newClusterEnv(o, &sorted, retention, pk.mode)
		if err != nil {
			return nil, err
		}
		// Cycle rng separate from the load rng so both series replay the
		// identical churn sequence.
		rng := rand.New(rand.NewSource(int64(o.Seed) + 1))
		for cycle := 1; cycle <= clusterCycles; cycle++ {
			env.rt.Manager().TryAdvanceEpoch()
			if _, err := env.rt.CompactNow(); err != nil {
				env.Close()
				return nil, err
			}
			dates := survivorDates(env)
			if len(dates) == 0 {
				env.Close()
				return nil, fmt.Errorf("cluster sweep: no surviving rows at cycle %d", cycle)
			}
			lo := dates[0]
			for _, sel := range selectivities {
				hi := dates[min(len(dates)*sel/100, len(dates)-1)]
				pt := ClusterPoint{
					Packing: pk.name, Cycle: cycle,
					SelectivityPct: float64(sel), Rows: len(dates),
				}
				pt.BlocksPruned, pt.BlocksScanned, err = env.checkWindow(lo, hi)
				if err == nil {
					pt.PrunedMs, err = env.timeWindow(o.Reps, lo, hi, true)
				}
				if err == nil {
					pt.UnprunedMs, err = env.timeWindow(o.Reps, lo, hi, false)
				}
				if err != nil {
					env.Close()
					return nil, fmt.Errorf("%s packing, cycle %d, sel %d%%: %w", pk.name, cycle, sel, err)
				}
				pt.BlocksTotal = env.db.Lineitems.Context().Blocks()
				if d := pt.BlocksPruned + pt.BlocksScanned; d > 0 {
					pt.PrunedFrac = float64(pt.BlocksPruned) / float64(d)
				}
				if pt.PrunedMs > 0 {
					pt.Speedup = pt.UnprunedMs / pt.PrunedMs
				}
				res.Sweep = append(res.Sweep, pt)
			}
			if cycle < clusterCycles {
				if err := clusterChurn(env, rng); err != nil {
					env.Close()
					return nil, err
				}
			}
		}
		env.Close()
	}

	joins, err := clusterJoins(o, data)
	if err != nil {
		return nil, err
	}
	res.Joins = joins
	return res, nil
}

// clusterJoins measures the cross-edge key-set pruning of the compiled
// join drivers on a fresh heap against their serial unpruned oracles.
//
// The dataset is re-keyed date-correlated first: orders sort by order
// date and take their position as key (the auto-increment ids of an
// OLTP feed, where insertion order IS date order), and lineitems follow
// their order's new key. dbgen's random orderkey↔date mapping makes
// every lineitem block span the whole key domain, so no key set could
// ever prune; under date-correlated keys the blocks hold contiguous key
// runs and the key-range sets cut real block ranges. The serial
// oracles run on the same re-keyed collections, so the row-identity
// assertion still covers the pruning paths exactly.
func clusterJoins(o Options, data *tpch.Dataset) ([]ClusterJoinPoint, error) {
	remap := *data
	remap.Orders = append([]tpch.OrderRow(nil), data.Orders...)
	sort.SliceStable(remap.Orders, func(i, j int) bool {
		return remap.Orders[i].OrderDate < remap.Orders[j].OrderDate
	})
	newKey := make(map[int64]int64, len(remap.Orders))
	for i := range remap.Orders {
		nk := int64(i + 1)
		newKey[remap.Orders[i].Key] = nk
		remap.Orders[i].Key = nk
	}
	remap.Lineitems = append([]tpch.LineitemRow(nil), data.Lineitems...)
	for i := range remap.Lineitems {
		remap.Lineitems[i].OrderKey = newKey[remap.Lineitems[i].OrderKey]
	}
	sort.SliceStable(remap.Lineitems, func(i, j int) bool {
		return remap.Lineitems[i].OrderKey < remap.Lineitems[j].OrderKey
	})
	data = &remap

	rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	s, err := rt.NewSession()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	db, err := tpch.LoadSMC(rt, s, data, core.RowIndirect)
	if err != nil {
		return nil, err
	}
	q := tpch.NewSMCQueries(db)
	p := tpch.DefaultParams()

	// The pruned pipeline paths must produce exactly the serial oracle's
	// rows — key-set pruning is a block-admission optimization, never a
	// result change.
	ctx := context.Background()
	q3, err3 := q.Q3ParCtx(ctx, s, p, 1)
	q4, err4 := q.Q4ParCtx(ctx, s, p, 1)
	q10, err10 := q.Q10ParCtx(ctx, s, p, 1)
	if err := errors.Join(err3, err4, err10); err != nil {
		return nil, fmt.Errorf("cluster joins: %w", err)
	}
	switch {
	case !slices.Equal(q3, q.Q3(s, p)):
		return nil, fmt.Errorf("cluster joins: Q3 pruned rows differ from serial oracle")
	case !slices.Equal(q4, q.Q4(s, p)):
		return nil, fmt.Errorf("cluster joins: Q4 pruned rows differ from serial oracle")
	case !slices.Equal(q10, q.Q10(s, p)):
		return nil, fmt.Errorf("cluster joins: Q10 pruned rows differ from serial oracle")
	}

	var out []ClusterJoinPoint
	runs := []struct {
		name   string
		pruned func() error
		serial func()
	}{
		{"q3",
			func() error { rows, err := q.Q3ParCtx(ctx, s, p, 1); sinkRows = len(rows); return err },
			func() { sinkRows = len(q.Q3(s, p)) }},
		{"q4",
			func() error { rows, err := q.Q4ParCtx(ctx, s, p, 1); sinkRows = len(rows); return err },
			func() { sinkRows = len(q.Q4(s, p)) }},
		{"q10",
			func() error { rows, err := q.Q10ParCtx(ctx, s, p, 1); sinkRows = len(rows); return err },
			func() { sinkRows = len(q.Q10(s, p)) }},
	}
	for _, r := range runs {
		pt := ClusterJoinPoint{Query: r.name}
		before := rt.StatsSnapshot()
		err := r.pruned()
		after := rt.StatsSnapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster joins: %s: %w", r.name, err)
		}
		pt.KeySetPruned = after.KeySetPruned - before.KeySetPruned
		pt.SynopsisOverlap = after.SynopsisOverlap - before.SynopsisOverlap
		d, err := medianErr(o.Reps, r.pruned)
		if err != nil {
			return nil, fmt.Errorf("cluster joins: %s: %w", r.name, err)
		}
		pt.PrunedMs = msF(d)
		pt.SerialMs = msF(median(o.Reps, r.serial))
		if pt.PrunedMs > 0 {
			pt.Speedup = pt.SerialMs / pt.PrunedMs
		}
		out = append(out, pt)
	}
	return out, nil
}

// Render emits the sweep and join tables.
func (r *ClusterResult) Render() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Clustered compaction — SF=%v, %d CPUs (workers=1)", r.SF, r.CPUs),
		Columns: []string{"packing", "cycle", "sel %", "pruned ms", "unpruned ms", "×", "pruned frac", "blocks", "rows"},
		Notes: []string{
			"each cycle: 30% upsert scatter + 45% retention trim, then one maintenance pass",
			"cluster packing groups key-adjacent blocks and moves in key order; size packing is fullest-first FFD",
			"q3/q4/q10 rows: cross-edge key-set pruning at workers=1 (pruned ms) vs the serial oracle (unpruned ms column)",
		},
	}
	for _, pt := range r.Sweep {
		t.Rows = append(t.Rows, []string{
			pt.Packing,
			fmt.Sprintf("%d", pt.Cycle),
			fmt.Sprintf("%.0f", pt.SelectivityPct),
			fmtMs(pt.PrunedMs),
			fmtMs(pt.UnprunedMs),
			fmt.Sprintf("%.2f", pt.Speedup),
			fmt.Sprintf("%.2f", pt.PrunedFrac),
			fmt.Sprintf("%d/%d", pt.BlocksPruned, pt.BlocksTotal),
			fmt.Sprintf("%d", pt.Rows),
		})
	}
	for _, jp := range r.Joins {
		t.Rows = append(t.Rows, []string{
			jp.Query, "-", "-",
			fmtMs(jp.PrunedMs),
			fmtMs(jp.SerialMs),
			fmt.Sprintf("%.2f", jp.Speedup),
			"-",
			fmt.Sprintf("%d pruned/%d overlap", jp.KeySetPruned, jp.SynopsisOverlap),
			"-",
		})
	}
	return t
}
