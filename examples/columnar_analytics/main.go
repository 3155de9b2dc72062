// columnar_analytics shows the §4.1 columnar layout: the same collection
// API, but each field lives in a per-block column segment. Scan-heavy
// queries touch only the columns they need, which is visible in the
// timings this example prints for row versus columnar layouts.
package main

import (
	"fmt"
	"log"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/tpch"
	"repro/internal/types"
)

func main() {
	const sf = 0.02
	data := tpch.Generate(sf, 42)

	rt, err := core.NewRuntime(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()

	run := func(layout core.Layout) (time.Duration, decimal.Dec128, int64) {
		coll := core.MustCollection[tpch.SLineitem](rt, "lineitem-"+layout.String(), layout)
		for i := range data.Lineitems {
			l := data.Lineitems[i]
			coll.MustAdd(s, &tpch.SLineitem{
				OrderKey: l.OrderKey, Quantity: l.Quantity,
				ExtendedPrice: l.ExtendedPrice, Discount: l.Discount, Tax: l.Tax,
				ReturnFlag: l.ReturnFlag, LineStatus: l.LineStatus,
				ShipDate: l.ShipDate, CommitDate: l.CommitDate, ReceiptDate: l.ReceiptDate,
				ShipInstruct: l.ShipInstruct, ShipMode: l.ShipMode, Comment: l.Comment,
			})
		}
		shipF := coll.Schema().MustField("ShipDate")
		extF := coll.Schema().MustField("ExtendedPrice")
		discF := coll.Schema().MustField("Discount")
		cutoff := types.MustDate("1995-01-01")

		// Q6-style scan: reads 3 of 16 columns. Columnar blocks stream
		// just those arrays; row blocks drag whole 170-byte slots
		// through the cache.
		var revenue decimal.Dec128
		t0 := time.Now()
		s.Enter()
		en := coll.Enumerate(s)
		for {
			blk, ok := en.NextBlock()
			if !ok {
				break
			}
			// One kernel for both layouts: resolve each column's base
			// and stride once per block, then walk rows by stride.
			ship, shipStride := blk.Col(shipF)
			ext, extStride := blk.Col(extF)
			disc, discStride := blk.Col(discF)
			for i := 0; i < blk.Capacity(); i++ {
				if !blk.SlotIsValid(i) {
					continue
				}
				if *(*types.Date)(unsafe.Add(ship, uintptr(i)*shipStride)) < cutoff {
					continue
				}
				decimal.MulAdd(&revenue,
					(*decimal.Dec128)(unsafe.Add(ext, uintptr(i)*extStride)),
					(*decimal.Dec128)(unsafe.Add(disc, uintptr(i)*discStride)))
			}
		}
		en.Close()
		s.Exit()
		el := time.Since(t0)
		return el, revenue, coll.MemoryBytes() / 1024
	}

	rowTime, rowRev, rowKiB := run(core.RowIndirect)
	colTime, colRev, colKiB := run(core.Columnar)

	fmt.Printf("lineitems: %d\n\n", len(data.Lineitems))
	fmt.Printf("%-10s %12s %18s %10s\n", "layout", "scan time", "revenue", "memory")
	fmt.Printf("%-10s %12v %18s %9dK\n", "row", rowTime.Round(time.Microsecond), rowRev, rowKiB)
	fmt.Printf("%-10s %12v %18s %9dK\n", "columnar", colTime.Round(time.Microsecond), colRev, colKiB)
	if rowRev != colRev {
		log.Fatal("layouts disagree on the query result!")
	}
	fmt.Printf("\ncolumnar/row scan-time ratio: %.2f\n", float64(colTime)/float64(rowTime))
}
