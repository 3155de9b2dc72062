package bench

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/managed"
	"repro/internal/mem"
	"repro/internal/tpch"
)

// Figure10Result holds enumeration times (ms) per series, for the simple
// and nested workloads, in fresh and worn collection states.
type Figure10Result struct {
	// Series name -> [simpleFresh, simpleWorn, nestedFresh, nestedWorn] ms.
	Series map[string][4]float64
	Order  []string
}

// Figure10 reproduces "Enumeration performance" (Fig. 10): (a) enumerate
// the lineitem collection applying a simple function to each object;
// (b) additionally follow the order reference and then the customer
// reference ("for each object follow the order reference to a customer
// object"). Collections are measured freshly loaded and after wear
// (many removals and insertions), which scatters managed objects over the
// heap and leaves limbo holes in SMC blocks (§7).
func Figure10(o Options) (*Figure10Result, error) {
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)
	res := &Figure10Result{
		Series: map[string][4]float64{},
		Order:  []string{"list", "concurrent-bag", "concurrent-dictionary", "smc", "smc-direct"},
	}

	// --- Managed engines. ---
	mdb := tpch.LoadManaged(data)
	bag := managed.NewConcurrentBag[tpch.MLineitem]()
	for _, l := range mdb.Lineitems.Items() {
		p := l
		bagAddExisting(bag, p)
	}
	ddb := tpch.LoadDict(mdb)

	wearManaged := func() {
		// Replace 60% of the lineitems in several rounds: removals free
		// heap objects, re-insertions allocate new ones elsewhere.
		items := mdb.Lineitems
		for round := 0; round < 3; round++ {
			n := items.Len()
			victims := n / 5
			removed := 0
			items.RemoveWhere(func(l *tpch.MLineitem) bool {
				if removed < victims && l.OrderKey%5 == int64(round) {
					removed++
					return true
				}
				return false
			})
			for i := 0; i < removed; i++ {
				row := &data.Lineitems[(round*victims+i)%len(data.Lineitems)]
				ml := rowToMLineitem(row)
				ml.Order = mdb.Orders.At(int(row.OrderKey-1) % mdb.Orders.Len())
				items.AddPtr(ml)
			}
			// Churn garbage between rounds so survivors scatter.
			for i := 0; i < 1_000; i++ {
				sinkAny = make([]byte, 4096)
			}
		}
	}

	simpleList := func() {
		var sum decimal.Dec128
		for _, l := range mdb.Lineitems.Items() {
			decimal.AddAssign(&sum, &l.ExtendedPrice)
		}
		sinkDec = sum
	}
	nestedList := func() {
		var sum decimal.Dec128
		var cnt int64
		for _, l := range mdb.Lineitems.Items() {
			o := l.Order
			if o == nil {
				continue
			}
			c := o.Customer
			if c == nil {
				continue
			}
			decimal.AddAssign(&sum, &c.AcctBal)
			cnt++
		}
		sinkDec = sum
		_ = cnt
	}
	simpleBag := func() {
		var sum decimal.Dec128
		bag.Range(func(l *tpch.MLineitem) bool {
			decimal.AddAssign(&sum, &l.ExtendedPrice)
			return true
		})
		sinkDec = sum
	}
	nestedBag := func() {
		var sum decimal.Dec128
		bag.Range(func(l *tpch.MLineitem) bool {
			if o := l.Order; o != nil {
				if c := o.Customer; c != nil {
					decimal.AddAssign(&sum, &c.AcctBal)
				}
			}
			return true
		})
		sinkDec = sum
	}
	simpleDict := func() {
		var sum decimal.Dec128
		ddb.LineitemsByKey.Range(func(_ int64, lp **tpch.MLineitem) bool {
			decimal.AddAssign(&sum, &(*lp).ExtendedPrice)
			return true
		})
		sinkDec = sum
	}
	nestedDict := func() {
		var sum decimal.Dec128
		ddb.LineitemsByKey.Range(func(_ int64, lp **tpch.MLineitem) bool {
			l := *lp
			if o := l.Order; o != nil {
				if c := o.Customer; c != nil {
					decimal.AddAssign(&sum, &c.AcctBal)
				}
			}
			return true
		})
		sinkDec = sum
	}

	listFreshSimple := median(o.Reps, simpleList)
	listFreshNested := median(o.Reps, nestedList)
	bagFreshSimple := median(o.Reps, simpleBag)
	bagFreshNested := median(o.Reps, nestedBag)
	dictFreshSimple := median(o.Reps, simpleDict)
	dictFreshNested := median(o.Reps, nestedDict)

	wearManaged()

	res.Series["list"] = [4]float64{msF(listFreshSimple), msF(median(o.Reps, simpleList)), msF(listFreshNested), msF(median(o.Reps, nestedList))}
	res.Series["concurrent-bag"] = [4]float64{msF(bagFreshSimple), msF(median(o.Reps, simpleBag)), msF(bagFreshNested), msF(median(o.Reps, nestedBag))}
	res.Series["concurrent-dictionary"] = [4]float64{msF(dictFreshSimple), msF(median(o.Reps, simpleDict)), msF(dictFreshNested), msF(median(o.Reps, nestedDict))}

	// --- SMC engines (indirect and direct). ---
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect} {
		name := "smc"
		if layout == core.RowDirect {
			name = "smc-direct"
		}
		rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
		if err != nil {
			return nil, err
		}
		s := rt.MustSession()
		sdb, err := tpch.LoadSMC(rt, s, data, layout)
		if err != nil {
			rt.Close()
			return nil, err
		}

		extF := sdb.Lineitems.Schema().MustField("ExtendedPrice")
		balF := sdb.Customers.Schema().MustField("AcctBal")
		frOrder := sdb.Lineitems.FieldRefByName("Order")
		frCust := sdb.Orders.FieldRefByName("Customer")

		// Compiled-code enumeration: open-coded block loops with hoisted
		// offsets, as the paper's generated queries produce (§4).
		extOff := extF.Offset
		simple := func() {
			var sum decimal.Dec128
			s.Enter()
			en := sdb.Lineitems.Enumerate(s)
			for {
				blk, ok := en.NextBlock()
				if !ok {
					break
				}
				n := blk.Capacity()
				for i := 0; i < n; i++ {
					if !blk.SlotIsValid(i) {
						continue
					}
					decimal.AddAssign(&sum, (*decimal.Dec128)(unsafe.Add(blk.SlotData(i), extOff)))
				}
			}
			en.Close()
			s.Exit()
			sinkDec = sum
		}
		nested := func() {
			var sum decimal.Dec128
			s.Enter()
			en := sdb.Lineitems.Enumerate(s)
			for {
				blk, ok := en.NextBlock()
				if !ok {
					break
				}
				n := blk.Capacity()
				for i := 0; i < n; i++ {
					if !blk.SlotIsValid(i) {
						continue
					}
					l := mem.Obj{Blk: blk, Slot: i, Ptr: blk.SlotData(i)}
					oobj, err := frOrder.Deref(s, l)
					if err != nil {
						continue
					}
					cobj, err := frCust.Deref(s, oobj)
					if err != nil {
						continue
					}
					decimal.AddAssign(&sum, (*decimal.Dec128)(cobj.Field(balF)))
				}
			}
			en.Close()
			s.Exit()
			sinkDec = sum
		}

		freshSimple := median(o.Reps, simple)
		freshNested := median(o.Reps, nested)

		// Wear: remove/re-insert 60% in rounds; limbo slots accumulate
		// until reclaimed, leaving holes (paper: "blocks containing
		// objects may have holes due to limbo slots").
		var refs []core.Ref[tpch.SLineitem]
		sdb.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], _ *tpch.SLineitem) bool {
			refs = append(refs, r)
			return true
		})
		for round := 0; round < 3; round++ {
			lo := round * len(refs) / 5
			hi := (round + 1) * len(refs) / 5
			for i := lo; i < hi; i++ {
				_ = sdb.Lineitems.Remove(s, refs[i])
			}
			rt.Manager().TryAdvanceEpoch()
			rt.Manager().TryAdvanceEpoch()
			for i := lo; i < hi; i++ {
				row := &data.Lineitems[i%len(data.Lineitems)]
				l := rowToSLineitem(row)
				if r, err := sdb.Lineitems.Add(s, &l); err == nil {
					refs[i] = r
				}
			}
		}

		res.Series[name] = [4]float64{
			msF(freshSimple), msF(median(o.Reps, simple)),
			msF(freshNested), msF(median(o.Reps, nested)),
		}
		s.Close()
		rt.Close()
	}
	return res, nil
}

func msF(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func bagAddExisting(b *managed.ConcurrentBag[tpch.MLineitem], p *tpch.MLineitem) {
	// ConcurrentBag.Add copies; for the enumeration benchmark we want the
	// same object graph, so add a copy pointing at the same Order.
	b.Add(p)
}

// Render emits the Figure 10 table.
func (r *Figure10Result) Render() *Table {
	t := &Table{
		Title:   "Figure 10 — enumeration performance (ms)",
		Columns: []string{"series", "simple fresh", "simple worn", "nested fresh", "nested worn"},
	}
	for _, name := range r.Order {
		v := r.Series[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmtMs(v[0]), fmtMs(v[1]), fmtMs(v[2]), fmtMs(v[3]),
		})
	}
	return t
}

func fmtMs(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
