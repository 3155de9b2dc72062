// refresh_streams demonstrates the paper's Figure 8 workload as an
// application: concurrent writers continuously refresh a self-managed
// lineitem collection (insert a batch / remove a predicate-selected
// batch) while an analyst goroutine keeps running a revenue query over
// the live data. Epoch-based reclamation keeps readers safe without
// locks; removed objects' slots return to circulation two epochs later.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/tpch"
)

func main() {
	const sf = 0.005
	data := tpch.Generate(sf, 7)

	rt, err := core.NewRuntime(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 5 * time.Millisecond})
	defer mt.Stop()

	loader := rt.MustSession()
	coll := core.MustCollection[tpch.SLineitem](rt, "lineitem", core.RowIndirect)
	for i := range data.Lineitems {
		l := row(&data.Lineitems[i])
		coll.MustAdd(loader, &l)
	}
	loader.Close()
	fmt.Printf("initial population: %d lineitems, %d KiB off-heap\n",
		coll.Len(), coll.MemoryBytes()/1024)

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		streams atomic.Int64
		queries atomic.Int64
		batch   = len(data.Lineitems) / 1000
	)
	if batch < 1 {
		batch = 1
	}

	// Two refresh writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			s := rt.MustSession()
			defer s.Close()
			round := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Insert stream: add 0.1% of the initial population.
				for i := 0; i < batch; i++ {
					l := row(&data.Lineitems[(round*batch+i)%len(data.Lineitems)])
					coll.MustAdd(s, &l)
				}
				// Remove stream: one enumeration removing a batch
				// selected by orderkey predicate.
				victimKey := int64((round*7 + wid) % 1500)
				var victims []core.Ref[tpch.SLineitem]
				coll.ForEach(s, func(r core.Ref[tpch.SLineitem], l *tpch.SLineitem) bool {
					if l.OrderKey%1500 == victimKey {
						victims = append(victims, r)
					}
					return len(victims) < batch
				})
				for _, v := range victims {
					_ = coll.Remove(s, v) // racing removals null out; fine
				}
				streams.Add(2)
				round++
			}
		}(w)
	}

	// One analyst running the revenue scan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := rt.MustSession()
		defer s.Close()
		extF := coll.Schema().MustField("ExtendedPrice")
		discF := coll.Schema().MustField("Discount")
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A compiled block kernel: each column's base and stride
			// resolve once per block; rows are walked by stride.
			var revenue decimal.Dec128
			s.Enter()
			en := coll.Enumerate(s)
			for {
				blk, ok := en.NextBlock()
				if !ok {
					break
				}
				ext, extStride := blk.Col(extF)
				disc, discStride := blk.Col(discF)
				for i := 0; i < blk.Capacity(); i++ {
					if blk.SlotIsValid(i) {
						decimal.MulAdd(&revenue,
							(*decimal.Dec128)(unsafe.Add(ext, uintptr(i)*extStride)),
							(*decimal.Dec128)(unsafe.Add(disc, uintptr(i)*discStride)))
					}
				}
			}
			en.Close()
			s.Exit()
			queries.Add(1)
		}
	}()

	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	st := rt.Manager().Stats()
	fmt.Printf("2s of concurrent refresh + analytics:\n")
	fmt.Printf("  refresh streams completed: %d\n", streams.Load())
	fmt.Printf("  analytic queries completed: %d\n", queries.Load())
	fmt.Printf("  final population: %d lineitems\n", coll.Len())
	fmt.Printf("  allocations=%d frees=%d slots reclaimed=%d epoch advances=%d\n",
		st.Allocs.Load(), st.Frees.Load(), st.SlotsReclaimed.Load(), st.EpochAdvances.Load())
	fmt.Printf("  compactions=%d objects moved=%d\n",
		st.Compactions.Load(), st.ObjectsMoved.Load())
}

func row(l *tpch.LineitemRow) tpch.SLineitem {
	return tpch.SLineitem{
		OrderKey: l.OrderKey, LineNumber: l.LineNumber,
		Quantity: l.Quantity, ExtendedPrice: l.ExtendedPrice,
		Discount: l.Discount, Tax: l.Tax,
		ReturnFlag: l.ReturnFlag, LineStatus: l.LineStatus,
		ShipDate: l.ShipDate, CommitDate: l.CommitDate, ReceiptDate: l.ReceiptDate,
		ShipInstruct: l.ShipInstruct, ShipMode: l.ShipMode, Comment: l.Comment,
	}
}
