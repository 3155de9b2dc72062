// Parallel joins: the concurrent query-memory subsystem over
// self-managed collections. Every scan worker leases a private memory
// region from the query object's ArenaPool and builds its join/group
// state in a partitioned region table — zero shared mutable state in the
// hot loop — and the coordinator folds the workers' tables together
// partition by partition once the scan drains.
//
// The demo loads TPC-H with direct-pointer references (§6, the layout
// where reference joins are a single pointer chase), then runs the
// three reference-join queries Q3, Q5 and Q10 serially and fanned out
// over NumCPU workers through their pipeline drivers (Q3ParCtx,
// Q5ParCtx, Q10ParCtx), verifying the parallel rows match the serial
// ones exactly; a driver error is fatal, never retried serially. It also
// shows the typed core.ParallelGroupBy API.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
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

	// The background maintenance scheduler may run freely: parallel scans
	// pin their snapshot epoch, so a compaction pass planned mid-scan
	// aborts harmlessly. Passes fan their groups out over all cores.
	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 50 * time.Millisecond})
	defer mt.Stop()

	fmt.Println("generating TPC-H data and loading collections (direct-pointer layout)...")
	data := tpch.Generate(0.05, 42)
	db, err := tpch.LoadSMC(rt, s, data, core.RowDirect)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d lineitems, %d orders, %d customers off-heap\n\n",
		db.Lineitems.Len(), db.Orders.Len(), db.Customers.Len())

	q := tpch.NewSMCQueries(db)
	p := tpch.DefaultParams()
	workers := runtime.NumCPU()

	ctx := context.Background()
	type jq struct {
		name string
		ser  func() any
		par  func(w int) (any, error)
	}
	for _, query := range []jq{
		{"Q3 (shipping priority, 3-way join)",
			func() any { return q.Q3(s, p) },
			func(w int) (any, error) { return q.Q3ParCtx(ctx, s, p, w) }},
		{"Q5 (local supplier volume, 5-way join)",
			func() any { return q.Q5(s, p) },
			func(w int) (any, error) { return q.Q5ParCtx(ctx, s, p, w) }},
		{"Q10 (returned items, join + wide output)",
			func() any { return q.Q10(s, p) },
			func(w int) (any, error) { return q.Q10ParCtx(ctx, s, p, w) }},
	} {
		fmt.Println(query.name + ":")
		par := func(w int) any {
			rows, err := query.par(w)
			if err != nil {
				log.Fatalf("%s at %d worker(s): %v", query.name, w, err)
			}
			return rows
		}
		t0 := time.Now()
		serial := query.ser()
		serialD := time.Since(t0)
		fmt.Printf("  serial:              %v\n", serialD.Round(time.Microsecond))
		t0 = time.Now()
		one := par(1)
		fmt.Printf("  parallel, 1 worker:  %v (same kernels, leased arena)\n", time.Since(t0).Round(time.Microsecond))
		t0 = time.Now()
		many := par(workers)
		manyD := time.Since(t0)
		fmt.Printf("  parallel, %d workers: %v (%.2fx)\n", workers, manyD.Round(time.Microsecond),
			float64(serialD)/float64(manyD))
		if !reflect.DeepEqual(serial, one) || !reflect.DeepEqual(serial, many) {
			log.Fatalf("%s: parallel rows diverge from serial", query.name)
		}
		fmt.Println("  parallel rows identical to serial ✓")
	}

	// Typed API: the same partition-then-merge idea for ordinary Go
	// callers — revenue per ship mode without touching compiled kernels.
	fmt.Println("\ntyped ParallelGroupBy (revenue by ship mode):")
	one := decimal.FromInt64(1)
	t0 := time.Now()
	groups, err := core.ParallelGroupBy(db.Lineitems, s, workers,
		func(_ core.Ref[tpch.SLineitem], v *tpch.SLineitem) (string, bool) { return v.ShipMode, true },
		func(acc decimal.Dec128, _ core.Ref[tpch.SLineitem], v *tpch.SLineitem) decimal.Dec128 {
			return acc.Add(v.ExtendedPrice.Mul(one.Sub(v.Discount)))
		},
		func(a, b decimal.Dec128) decimal.Dec128 { return a.Add(b) },
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d ship modes in %v (%d workers)\n", len(groups), time.Since(t0).Round(time.Microsecond), workers)
}
