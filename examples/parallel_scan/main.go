// Parallel scan: the multi-core query engine over self-managed
// collections. One §5.2 compaction-decision pass resolves the block
// list, then N worker sessions — each in its own epoch critical
// section — claim blocks from an atomic cursor (work stealing) and fold
// into per-worker partial accumulators that merge at the end.
//
// The demo loads TPC-H lineitems, then runs the same full-collection
// aggregations at 1 worker and at NumCPU workers: the compiled Q1/Q6
// pipeline drivers (Q1ParCtx/Q6ParCtx), the typed ParallelAggregatePred
// convenience API, and a filtered ParallelForEachPred count. A driver
// error is fatal: no driver falls back to the serial path.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/tpch"
)

func main() {
	rt, err := core.NewRuntime(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()

	// A background maintainer may compact freely: a compaction planned
	// while a parallel scan is open aborts at its epoch wait (the
	// coordinator pins the snapshot epoch), and one planned between scans
	// proceeds.
	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 50 * time.Millisecond})
	defer mt.Stop()

	fmt.Println("generating TPC-H data and loading collections (columnar layout)...")
	data := tpch.Generate(0.05, 42)
	db, err := tpch.LoadSMC(rt, s, data, core.Columnar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d lineitems off-heap in %d blocks\n\n",
		db.Lineitems.Len(), db.Lineitems.Context().Blocks())

	q := tpch.NewSMCQueries(db)
	p := tpch.DefaultParams()
	workers := runtime.NumCPU()

	ctx := context.Background()
	run := func(name string, w int, fn func(w int) error) time.Duration {
		t0 := time.Now()
		if err := fn(w); err != nil {
			log.Fatalf("%s at %d worker(s): %v", name, w, err)
		}
		d := time.Since(t0)
		fmt.Printf("  %-28s %d worker(s): %v\n", name, w, d.Round(time.Microsecond))
		return d
	}

	fmt.Println("compiled Q1 (pricing summary):")
	q1 := func(w int) error { _, err := q.Q1ParCtx(ctx, s, p, w); return err }
	base := run("Q1ParCtx", 1, q1)
	par := run("Q1ParCtx", workers, q1)
	fmt.Printf("  speedup: %.2fx\n\n", float64(base)/float64(par))

	fmt.Println("compiled Q6 (revenue forecast):")
	q6 := func(w int) error { _, err := q.Q6ParCtx(ctx, s, p, w); return err }
	base = run("Q6ParCtx", 1, q6)
	par = run("Q6ParCtx", workers, q6)
	fmt.Printf("  speedup: %.2fx\n\n", float64(base)/float64(par))

	// Typed API: revenue sum via per-worker partial accumulators.
	fmt.Println("typed ParallelAggregatePred (sum of extendedprice*(1-discount)):")
	one := decimal.FromInt64(1)
	var revenue decimal.Dec128
	for _, w := range []int{1, workers} {
		t0 := time.Now()
		revenue, err = core.ParallelAggregatePred(db.Lineitems, s, w, nil,
			func(int) decimal.Dec128 { return decimal.Dec128{} },
			func(acc decimal.Dec128, _ core.Ref[tpch.SLineitem], v *tpch.SLineitem) decimal.Dec128 {
				return acc.Add(v.ExtendedPrice.Mul(one.Sub(v.Discount)))
			},
			func(a, b decimal.Dec128) decimal.Dec128 { return a.Add(b) },
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d worker(s): %v\n", w, time.Since(t0).Round(time.Microsecond))
	}
	fmt.Printf("  total revenue: %s\n\n", revenue)

	// Typed API: filtered visitation with early-stop support.
	fmt.Println("typed ParallelForEachPred (count lineitems shipped by rail):")
	var counts = make([]int64, workers)
	t0 := time.Now()
	if err := db.Lineitems.ParallelForEachPred(s, workers, nil, func(w int, _ core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		if v.ShipMode == "RAIL" {
			counts[w]++
		}
		return true
	}); err != nil {
		log.Fatal(err)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	fmt.Printf("  %d rail shipments (%d workers, %v)\n", total, workers, time.Since(t0).Round(time.Microsecond))
}
