package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Ablations for the design choices DESIGN.md calls out. Each sub-study
// isolates one mechanism the paper (or this implementation) relies on and
// measures it against the naive alternative:
//
//  1. Critical-section granularity (§3.4/§4: "several accesses can be
//     combined into a single critical section to amortize the overhead").
//  2. Coalesced marshalling (single memmoves over scalar runs) versus
//     field-by-field copies in Add.
//  3. Region versus Go-heap query intermediates (§7).
//  4. Block-size sweep: enumeration and allocation cost per block size.
type AblationResult struct {
	CSPerQuery, CSPerBlock, CSPerObject time.Duration

	MarshalCoalesced, MarshalFieldwise time.Duration

	Q3Region, Q3HeapMap time.Duration

	BlockSizes []int
	ScanByBS   []time.Duration
	LoadByBS   []time.Duration
}

// FigureAblation runs all ablation studies.
func FigureAblation(o Options) (*AblationResult, error) {
	o = o.WithDefaults()
	res := &AblationResult{}
	data := tpch.Generate(o.SF, o.Seed)

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

	// --- 1. Critical-section granularity: Q6-style scan over lineitems
	// summing quantities, entered once per query / per block / per object.
	ctx := db.Lineitems.Context()
	qtyF := db.Lineitems.Schema().MustField("Quantity")
	shipF := db.Lineitems.Schema().MustField("ShipDate")
	cutoff := types.MustDate("1995-01-01")

	scanBlock := func(blk *mem.Block) decimal.Dec128 {
		var sum decimal.Dec128
		n := blk.Capacity()
		for i := 0; i < n; i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			if *(*types.Date)(blk.FieldPtr(i, shipF)) >= cutoff {
				continue
			}
			decimal.AddAssign(&sum, (*decimal.Dec128)(blk.FieldPtr(i, qtyF)))
		}
		return sum
	}

	// Warm-up: page in the blocks and heat the scan kernel, so the first
	// measured variant does not absorb the cold-start cost.
	s.Enter()
	for _, blk := range ctx.SnapshotBlocks() {
		sinkAny = scanBlock(blk)
	}
	s.Exit()

	res.CSPerQuery = median(o.Reps, func() {
		var sum decimal.Dec128
		s.Enter()
		for _, blk := range ctx.SnapshotBlocks() {
			v := scanBlock(blk)
			decimal.AddAssign(&sum, &v)
		}
		s.Exit()
		sinkAny = sum
	})
	res.CSPerBlock = median(o.Reps, func() {
		var sum decimal.Dec128
		for _, blk := range ctx.SnapshotBlocks() {
			s.Enter()
			v := scanBlock(blk)
			s.Exit()
			decimal.AddAssign(&sum, &v)
		}
		sinkAny = sum
	})
	res.CSPerObject = median(o.Reps, func() {
		var sum decimal.Dec128
		for _, blk := range ctx.SnapshotBlocks() {
			n := blk.Capacity()
			for i := 0; i < n; i++ {
				s.Enter()
				if blk.SlotIsValid(i) &&
					*(*types.Date)(blk.FieldPtr(i, shipF)) < cutoff {
					decimal.AddAssign(&sum, (*decimal.Dec128)(blk.FieldPtr(i, qtyF)))
				}
				s.Exit()
			}
		}
		sinkAny = sum
	})

	// --- 2. Coalesced vs field-by-field marshalling: Add throughput into
	// a fresh collection (strings dominate less for lineitem than customer,
	// so lineitem isolates the scalar-run effect).
	loadOnce := func(coalesced bool) {
		rt2 := core.MustRuntime(core.Options{HeapBackend: o.HeapBackend})
		defer rt2.Close()
		s2 := rt2.MustSession()
		defer s2.Close()
		coll := core.MustCollection[tpch.SLineitem](rt2, "lineitem", core.RowIndirect)
		coll.SetCoalescedCopy(coalesced)
		for i := range data.Lineitems {
			l := &data.Lineitems[i]
			coll.MustAdd(s2, &tpch.SLineitem{
				OrderKey: l.OrderKey, LineNumber: l.LineNumber,
				Quantity: l.Quantity, ExtendedPrice: l.ExtendedPrice,
				Discount: l.Discount, Tax: l.Tax,
				ReturnFlag: l.ReturnFlag, LineStatus: l.LineStatus,
				ShipDate: l.ShipDate, CommitDate: l.CommitDate,
				ReceiptDate: l.ReceiptDate, ShipInstruct: l.ShipInstruct,
				ShipMode: l.ShipMode, Comment: l.Comment,
			})
		}
	}
	loadOnce(true) // warm-up: page in the dataset and heat the allocator paths
	res.MarshalCoalesced = median(o.Reps, func() { loadOnce(true) })
	res.MarshalFieldwise = median(o.Reps, func() { loadOnce(false) })

	// --- 3. Region vs Go-heap intermediates: Q3's group table lives in a
	// query region (§7's unsafe-query optimization) or in an ordinary map.
	q := tpch.NewSMCQueries(db)
	p := tpch.DefaultParams()
	sinkAny = q.Q3(s, p) // warm-up both variants
	sinkAny = q.Q3MapIntermediates(s, p)
	res.Q3Region = median(o.Reps, func() { sinkAny = q.Q3(s, p) })
	res.Q3HeapMap = median(o.Reps, func() { sinkAny = q.Q3MapIntermediates(s, p) })

	// --- 4. Block-size sweep: load + scan at several block sizes.
	res.BlockSizes = []int{1 << 16, 1 << 18, 1 << 20}
	for _, bs := range res.BlockSizes {
		rt3, err := core.NewRuntime(core.Options{BlockSize: bs, HeapBackend: o.HeapBackend})
		if err != nil {
			return nil, err
		}
		s3 := rt3.MustSession()
		db3, err := tpch.LoadSMC(rt3, s3, data, core.RowIndirect)
		if err != nil {
			s3.Close()
			rt3.Close()
			return nil, err
		}
		res.LoadByBS = append(res.LoadByBS, median(o.Reps, func() {
			rtt := core.MustRuntime(core.Options{BlockSize: bs, HeapBackend: o.HeapBackend})
			st := rtt.MustSession()
			coll := core.MustCollection[tpch.SLineitem](rtt, "lineitem", core.RowIndirect)
			for i := range data.Lineitems {
				l := &data.Lineitems[i]
				coll.MustAdd(st, &tpch.SLineitem{
					OrderKey: l.OrderKey, Quantity: l.Quantity,
					ShipDate: l.ShipDate, Comment: l.Comment,
				})
			}
			st.Close()
			rtt.Close()
		}))
		ctx3 := db3.Lineitems.Context()
		qty3 := db3.Lineitems.Schema().MustField("Quantity")
		res.ScanByBS = append(res.ScanByBS, median(o.Reps, func() {
			var sum decimal.Dec128
			s3.Enter()
			for _, blk := range ctx3.SnapshotBlocks() {
				n := blk.Capacity()
				for i := 0; i < n; i++ {
					if blk.SlotIsValid(i) {
						decimal.AddAssign(&sum, (*decimal.Dec128)(blk.FieldPtr(i, qty3)))
					}
				}
			}
			s3.Exit()
			sinkAny = sum
		}))
		s3.Close()
		rt3.Close()
	}
	return res, nil
}

// Render emits one table per ablation study.
func (r *AblationResult) Render() []*Table {
	cs := &Table{
		Title:   "Ablation — critical-section granularity (§3.4/§4), Q6-style scan",
		Columns: []string{"granularity", "time (ms)", "vs per-query"},
	}
	base := r.CSPerQuery
	for _, row := range []struct {
		name string
		d    time.Duration
	}{{"per-query", r.CSPerQuery}, {"per-block", r.CSPerBlock}, {"per-object", r.CSPerObject}} {
		cs.Rows = append(cs.Rows, []string{row.name, ms(row.d), rel(base, row.d)})
	}

	ma := &Table{
		Title:   "Ablation — coalesced vs field-by-field marshalling (lineitem load)",
		Columns: []string{"marshal", "time (ms)", "vs coalesced"},
		Rows: [][]string{
			{"coalesced", ms(r.MarshalCoalesced), "100"},
			{"field-by-field", ms(r.MarshalFieldwise), rel(r.MarshalCoalesced, r.MarshalFieldwise)},
		},
	}

	rg := &Table{
		Title:   "Ablation — region vs Go-heap query intermediates (§7), unsafe Q3",
		Columns: []string{"intermediates", "time (ms)", "vs region"},
		Rows: [][]string{
			{"region table", ms(r.Q3Region), "100"},
			{"heap map", ms(r.Q3HeapMap), rel(r.Q3Region, r.Q3HeapMap)},
		},
	}

	bs := &Table{
		Title:   "Ablation — block-size sweep (lineitem load + full scan)",
		Columns: []string{"block size", "load (ms)", "scan (ms)"},
	}
	for i, b := range r.BlockSizes {
		bs.Rows = append(bs.Rows, []string{
			fmt.Sprintf("%d KiB", b/1024), ms(r.LoadByBS[i]), ms(r.ScanByBS[i]),
		})
	}
	return []*Table{cs, ma, rg, bs}
}
