package tpch

import (
	"bytes"
	"unsafe"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/region"
	"repro/internal/schema"
	"repro/internal/types"
)

// Compiled "unsafe" queries over self-managed collections: the Go
// equivalent of the paper's compiled unsafe C# (§7). The generated-code
// idioms are reproduced by hand, as the paper itself did: per-block slot
// directory scans, direct pointers to 16-byte decimals passed to in-place
// arithmetic, and reference joins through FieldRef (indirection or
// direct pointers per layout). Every kernel resolves the columns it reads
// from its own block once per block through the block's column view
// (mem.Block.Col, wrapped by column below) and then walks rows with a
// constant stride, so one loop serves all three layouts: a row layout's
// view is a field offset plus the slot stride, a columnar one the
// column's base plus its element size (§4, §4.1). Hops into other blocks
// still address through mem.Obj. Every query runs inside critical
// sections managed by the block enumerator (§4).

// SMCQueries caches the resolved field handles ("compiled" offsets) for
// one SMCDB, plus the arena pool its query intermediates lease from
// ("use memory regions for all intermediate data during query
// processing", §7 — rethought for multi-core). Build it once, run
// queries many times; unlike the old one-arena-per-stream design, every
// query leases private region state from the pool, so concurrent queries
// on one SMCQueries — serial ones on separate sessions, or the *Par
// drivers' scan workers — never share mutable intermediates.
type SMCQueries struct {
	db *SMCDB
	// arenas leases per-query (and, in the *Par drivers, per-worker)
	// regions for intermediates; returned arenas are reset and recycled
	// under the pool's bounded retained footprint.
	arenas *region.ArenaPool
	// rowFast enables the open-coded indirect fast path (row targets).
	rowFast bool

	// lineitem fields
	lShip, lCommit, lRecv   *schema.Field
	lQty, lExt, lDisc, lTax *schema.Field
	lRet, lStat             *schema.Field
	lOrderKey               *schema.Field
	frLOrder, frLSupp       core.FieldRef
	// orders fields
	oKey, oDate, oPrio, oSprio *schema.Field
	frOCust                    core.FieldRef
	// customer fields
	cSeg                       *schema.Field
	cKey, cName, cAddr, cPhone *schema.Field
	cBal, cCmnt                *schema.Field
	frCNation                  core.FieldRef
	// supplier fields
	sName, sAddr, sPhone, sBal, sCmnt *schema.Field
	frSNation                         core.FieldRef
	// nation fields
	nName, nKey *schema.Field
	frNRegion   core.FieldRef
	// region fields
	rName *schema.Field
	// part fields
	pKey, pSize, pType, pMfgr *schema.Field
	// partsupp fields
	psCost             *schema.Field
	frPSPart, frPSSupp core.FieldRef
}

// NewSMCQueries resolves all field offsets for the database and
// registers the query object's arena pool with the runtime's stats
// surface (core.Runtime.StatsSnapshot reports its lease and retained-
// footprint metrics).
func NewSMCQueries(db *SMCDB) *SMCQueries {
	l := db.Lineitems.Schema()
	o := db.Orders.Schema()
	c := db.Customers.Schema()
	s := db.Suppliers.Schema()
	n := db.Nations.Schema()
	r := db.Regions.Schema()
	pt := db.Parts.Schema()
	ps := db.PartSupps.Schema()
	q := &SMCQueries{
		db:        db,
		arenas:    region.NewArenaPool(nil, 0, 0),
		rowFast:   db.Layout != core.Columnar,
		lShip:     l.MustField("ShipDate"),
		lCommit:   l.MustField("CommitDate"),
		lRecv:     l.MustField("ReceiptDate"),
		lQty:      l.MustField("Quantity"),
		lExt:      l.MustField("ExtendedPrice"),
		lDisc:     l.MustField("Discount"),
		lTax:      l.MustField("Tax"),
		lRet:      l.MustField("ReturnFlag"),
		lStat:     l.MustField("LineStatus"),
		lOrderKey: l.MustField("OrderKey"),
		frLOrder:  db.Lineitems.FieldRefByName("Order"),
		frLSupp:   db.Lineitems.FieldRefByName("Supplier"),
		oKey:      o.MustField("Key"),
		oDate:     o.MustField("OrderDate"),
		oPrio:     o.MustField("OrderPriority"),
		oSprio:    o.MustField("ShipPriority"),
		frOCust:   db.Orders.FieldRefByName("Customer"),
		cSeg:      c.MustField("MktSegment"),
		cKey:      c.MustField("Key"),
		cName:     c.MustField("Name"),
		cAddr:     c.MustField("Address"),
		cPhone:    c.MustField("Phone"),
		cBal:      c.MustField("AcctBal"),
		cCmnt:     c.MustField("Comment"),
		frCNation: db.Customers.FieldRefByName("Nation"),
		sName:     s.MustField("Name"),
		sAddr:     s.MustField("Address"),
		sPhone:    s.MustField("Phone"),
		sBal:      s.MustField("AcctBal"),
		sCmnt:     s.MustField("Comment"),
		frSNation: db.Suppliers.FieldRefByName("Nation"),
		nName:     n.MustField("Name"),
		nKey:      n.MustField("Key"),
		frNRegion: db.Nations.FieldRefByName("Region"),
		rName:     r.MustField("Name"),
		pKey:      pt.MustField("Key"),
		pSize:     pt.MustField("Size"),
		pType:     pt.MustField("Type"),
		pMfgr:     pt.MustField("Mfgr"),
		psCost:    ps.MustField("SupplyCost"),
		frPSPart:  db.PartSupps.FieldRefByName("Part"),
		frPSSupp:  db.PartSupps.FieldRefByName("Supplier"),
	}
	db.RT.RegisterArenaPool("tpch.SMCQueries", q.arenas)
	return q
}

// column is a block's resolved view of one field (mem.Block.Col): row
// i's value lives at base + i*stride under every layout. Kernels build
// one per field per block, so the per-row address is one multiply-add.
type column struct {
	base   unsafe.Pointer
	stride uintptr
}

// colOf resolves blk's view of field f.
func colOf(blk *mem.Block, f *schema.Field) column {
	base, stride := blk.Col(f)
	return column{base, stride}
}

func (c column) at(i int) unsafe.Pointer   { return unsafe.Add(c.base, uintptr(i)*c.stride) }
func (c column) date(i int) types.Date     { return *(*types.Date)(c.at(i)) }
func (c column) i32(i int) int32           { return *(*int32)(c.at(i)) }
func (c column) i64(i int) int64           { return *(*int64)(c.at(i)) }
func (c column) dec(i int) *decimal.Dec128 { return (*decimal.Dec128)(c.at(i)) }
func (c column) str(i int) []byte          { return (*(*types.StrRef)(c.at(i))).Bytes() }

// objStr reads a string field of a dereferenced object.
func objStr(o mem.Obj, f *schema.Field) []byte {
	return (*(*types.StrRef)(o.Field(f))).Bytes()
}

// Deref follows fr's reference field of o into fr's target collection
// through the open-coded fast path below. It is the hop out of an object
// reached by an earlier dereference — for the kernels here and for
// external compiled query code (the figure harnesses).
func (q *SMCQueries) Deref(s *core.Session, fr *core.FieldRef, o mem.Obj) (mem.Obj, error) {
	return q.deref(s, fr, o.Field(fr.Field), o)
}

// deref follows the reference stored at cell — the address of fr's field
// of object o, which a kernel takes from its block's column view — into
// fr's target collection. It open-codes the dereference checks the
// paper's JIT compiler inlines into generated query code — generation
// match plus clean incarnation match, then the payload load — and falls
// back to the full protocol (flags, relocation cases, null) otherwise;
// only that slow path consults o.
func (q *SMCQueries) deref(s *core.Session, fr *core.FieldRef, cell unsafe.Pointer, o mem.Obj) (mem.Obj, error) {
	if fr.Direct {
		addr := *(*uint64)(cell)
		if addr == 0 {
			return mem.Obj{}, mem.ErrNullReference
		}
		p := types.LaunderAddr(uintptr(addr))
		if mem.SlotIncWord(p) == *(*uint32)(unsafe.Add(cell, 8)) {
			return mem.Obj{Ptr: p}, nil
		}
		return fr.Deref(s, o)
	}
	if q.rowFast {
		r := *(*types.Ref)(cell)
		e := r.Entry
		if e == nil {
			return mem.Obj{}, mem.ErrNullReference
		}
		if mem.EntryGen(e) == r.Gen && mem.EntryIncWord(e) == r.Inc {
			return mem.Obj{Ptr: mem.EntryPayloadRow(e)}, nil
		}
	}
	return fr.Deref(s, o)
}

// Q1 — pricing summary report: the paper's showcase for direct decimal
// pointers ("the query is decimal computation heavy ... calling the
// functions that perform decimal math using pointers and allowing for
// in-place modifications results in a huge performance gain", §7).
func (q *SMCQueries) Q1(s *core.Session, p Params) []Q1Row {
	cutoff := p.Q1Cutoff()
	// Dense accumulator table indexed by (returnflag, linestatus) pairs:
	// the query compiler knows both are single chars. The per-block
	// kernel is shared with Q1ParCtx (queries_smc_par.go).
	var d q1Dense

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q1Block(blk, cutoff, &d)
	}
	en.Close()
	s.Exit()
	return q1Finish(d.groups())
}

// Q2 — minimum-cost supplier, reference joins through partsupp. The
// per-part minimum-cost state lives in a leased region; both passes run
// the per-block kernels in queries_smc_joins.go.
func (q *SMCQueries) Q2(s *core.Session, p Params) []Q2Row {
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	minCost := region.NewPartitionedTable[q2Min](a, 1, joinTableHint)
	typeSuffix := []byte(p.Q2Type)
	regionName := []byte(p.Q2Region)

	s.Enter()
	defer s.Exit()
	// Pass 1: minimum supply cost per qualifying part among suppliers in
	// the region.
	en := q.db.PartSupps.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q2MinBlock(s, blk, p.Q2Size, typeSuffix, regionName, minCost)
	}
	en.Close()

	// Pass 2: emit suppliers achieving the minimum.
	var rows []Q2Row
	en2 := q.db.PartSupps.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		q.q2EmitBlock(s, blk, regionName, minCost, &rows)
	}
	en2.Close()
	return SortQ2(rows)
}

// q3Acc is the Q3 group accumulator; pointer-free so it can live in the
// query region.
type q3Acc struct {
	rev   decimal.Dec128
	date  types.Date
	sprio int32
	seen  bool
}

// Q3 — shipping priority, lineitem→order→customer reference joins. The
// group-by state lives in a leased memory region (§7's unsafe-query
// optimization): one table in arena memory, discarded wholesale when the
// query ends. The per-block kernel is shared with Q3ParCtx
// (queries_smc_joins.go).
func (q *SMCQueries) Q3(s *core.Session, p Params) []Q3Row {
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	groups := region.NewPartitionedTable[q3Acc](a, 1, joinTableHint)
	segment := []byte(p.Q3Segment)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q3Block(s, blk, p.Q3Date, segment, groups)
	}
	en.Close()
	s.Exit()
	return q3Rows(groups)
}

// Q3MapIntermediates is the ablation variant of Q3 with Go-heap map
// intermediates instead of region-backed state; identical otherwise.
func (q *SMCQueries) Q3MapIntermediates(s *core.Session, p Params) []Q3Row {
	groups := make(map[int64]*q3Acc)
	segment := []byte(p.Q3Segment)
	one := decimal.FromInt64(1)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		ship, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lExt), colOf(blk, q.lDisc)
		ord := colOf(blk, q.frLOrder.Field)
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) || ship.date(i) <= p.Q3Date {
				continue
			}
			oobj, err := q.deref(s, &q.frLOrder, ord.at(i), mem.Obj{Blk: blk, Slot: i})
			if err != nil {
				continue
			}
			if *(*types.Date)(oobj.Field(q.oDate)) >= p.Q3Date {
				continue
			}
			cobj, err := q.Deref(s, &q.frOCust, oobj)
			if err != nil {
				continue
			}
			if !bytes.Equal(objStr(cobj, q.cSeg), segment) {
				continue
			}
			ok64 := *(*int64)(oobj.Field(q.oKey))
			a := groups[ok64]
			if a == nil {
				a = &q3Acc{
					date:  *(*types.Date)(oobj.Field(q.oDate)),
					sprio: *(*int32)(oobj.Field(q.oSprio)),
				}
				groups[ok64] = a
			}
			rev := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
			decimal.AddAssign(&a.rev, &rev)
		}
	}
	en.Close()
	s.Exit()

	rows := make([]Q3Row, 0, len(groups))
	for k, a := range groups {
		rows = append(rows, Q3Row{OrderKey: k, Revenue: a.rev, OrderDate: a.date, ShipPriority: a.sprio})
	}
	return SortQ3(rows)
}

// q4LateBlock scans one lineitem block for late lines (commit before
// receipt) whose order falls in the Q4 window, folding their order keys
// into the semi-join key table: the compiled per-block kernel. s must be
// the session whose critical section covers blk.
func (q *SMCQueries) q4LateBlock(s *core.Session, blk *mem.Block, lo, hi types.Date, late *region.PartitionedTable[struct{}]) {
	commit, recv := colOf(blk, q.lCommit), colOf(blk, q.lRecv)
	key, ord := colOf(blk, q.lOrderKey), colOf(blk, q.frLOrder.Field)
	for i := 0; i < blk.Capacity(); i++ {
		if !blk.SlotIsValid(i) || commit.date(i) >= recv.date(i) {
			continue
		}
		oobj, err := q.deref(s, &q.frLOrder, ord.at(i), mem.Obj{Blk: blk, Slot: i})
		if err != nil {
			continue
		}
		od := *(*types.Date)(oobj.Field(q.oDate))
		if od >= lo && od < hi {
			late.At(key.i64(i))
		}
	}
}

// q4CountBlock counts one orders block's in-window rows per priority
// against the late-key table: the per-block counting kernel.
func (q *SMCQueries) q4CountBlock(blk *mem.Block, lo, hi types.Date, late *region.PartitionedTable[struct{}], counts map[string]int64) {
	date, key, prio := colOf(blk, q.oDate), colOf(blk, q.oKey), colOf(blk, q.oPrio)
	for i := 0; i < blk.Capacity(); i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		if od := date.date(i); od < lo || od >= hi {
			continue
		}
		if late.Get(key.i64(i)) != nil {
			counts[string(prio.str(i))]++
		}
	}
}

// q4Rows materializes the priority counts in Q4's output order.
func q4Rows(counts map[string]int64) []Q4Row {
	rows := make([]Q4Row, 0, len(counts))
	for pr, n := range counts {
		rows = append(rows, Q4Row{Priority: pr, Count: n})
	}
	SortQ4(rows)
	return rows
}

// Q4 — order priority checking (semi-join on orderkey). The semi-join
// key set is region-backed (§7).
func (q *SMCQueries) Q4(s *core.Session, p Params) []Q4Row {
	hi := p.Q4Date.AddMonths(3)
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	late := region.NewPartitionedTable[struct{}](a, 1, 1024)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q4LateBlock(s, blk, p.Q4Date, hi, late)
	}
	en.Close()

	counts := make(map[string]int64)
	en2 := q.db.Orders.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		q.q4CountBlock(blk, p.Q4Date, hi, late, counts)
	}
	en2.Close()
	s.Exit()
	return q4Rows(counts)
}

// Q5 — local supplier volume: five-way reference join. The revenue
// accumulators live in a leased region keyed by nation key (pointer-free,
// §7); names resolve in a finishing pass over the tiny nation collection.
// The per-block kernel is shared with Q5ParCtx (queries_smc_joins.go).
func (q *SMCQueries) Q5(s *core.Session, p Params) []Q5Row {
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	rev := region.NewPartitionedTable[decimal.Dec128](a, 1, 64)
	lo, hi := p.Q5Date, p.Q5Date.AddYears(1)
	regionName := []byte(p.Q5Region)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q5Block(s, blk, lo, hi, regionName, rev)
	}
	en.Close()
	s.Exit()
	return q.q5Finish(s, rev)
}

// Q6 — forecasting revenue change: pure scan with decimal predicates.
func (q *SMCQueries) Q6(s *core.Session, p Params) decimal.Dec128 {
	hi := p.Q6Date.AddYears(1)
	lo := p.Q6Discount.Sub(decimal.MustParse("0.01"))
	hiD := p.Q6Discount.Add(decimal.MustParse("0.01"))
	var sum q6Sum

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q6Block(blk, p, hi, lo, hiD, &sum)
	}
	en.Close()
	s.Exit()
	return sum.sum
}

// Q10 — returned-item report: group returned lineitems of one quarter by
// customer. Revenue accumulators live in a leased region keyed by
// customer key (pointer-free, §7); the finishing pass joins the table
// back to the customer collection and materializes the output rows
// inside its critical section, as the paper's generated code
// materializes result objects before returning control (§4). The
// per-block kernel is shared with Q10ParCtx (queries_smc_joins.go).
func (q *SMCQueries) Q10(s *core.Session, p Params) []Q10Row {
	ar := q.arenas.Lease()
	defer q.arenas.Return(ar)
	rev := region.NewPartitionedTable[decimal.Dec128](ar, 1, joinTableHint)
	lo, hi := p.Q10Date, p.Q10Date.AddMonths(3)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q10Block(s, blk, lo, hi, rev)
	}
	en.Close()
	s.Exit()
	return q.q10Finish(s, rev)
}

// All runs Q1–Q6.
func (q *SMCQueries) All(s *core.Session, p Params) *Result {
	return &Result{
		Q1: q.Q1(s, p),
		Q2: q.Q2(s, p),
		Q3: q.Q3(s, p),
		Q4: q.Q4(s, p),
		Q5: q.Q5(s, p),
		Q6: q.Q6(s, p),
	}
}
