package tpch

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/schema"
	"repro/internal/types"
)

// "Safe" compiled queries over self-managed collections: the paper's
// "SMC (C#)" series in Figure 11 — "compiled C# code that, other than the
// enumeration code, is equivalent to the code used for managed
// collections. This illustrates the fraction of the overall improvement
// contributed by the better enumeration performance of smcs."
//
// The enumeration walks the collection's private blocks in memory order
// (slot directory scan), but object access keeps managed-code value
// semantics: every field is loaded *by value* and all decimal arithmetic
// copies 16-byte operands, exactly like the compiled managed queries.
// The unsafe variant (queries_smc.go) differs by passing direct pointers
// into block memory to in-place decimal routines (§7).

// The safe engine's per-row value accessors: every field read goes
// through Block.FieldPtr, as managed code reads a field per object. The
// compiled kernels resolve a column view per block instead (column,
// queries_smc.go).

func strAt(b *mem.Block, slot int, f *schema.Field) []byte {
	return (*(*types.StrRef)(b.FieldPtr(slot, f))).Bytes()
}

func decAt(b *mem.Block, slot int, f *schema.Field) *decimal.Dec128 {
	return (*decimal.Dec128)(b.FieldPtr(slot, f))
}

func dateAt(b *mem.Block, slot int, f *schema.Field) types.Date {
	return *(*types.Date)(b.FieldPtr(slot, f))
}

func i32At(b *mem.Block, slot int, f *schema.Field) int32 {
	return *(*int32)(b.FieldPtr(slot, f))
}

func i64At(b *mem.Block, slot int, f *schema.Field) int64 {
	return *(*int64)(b.FieldPtr(slot, f))
}

// SMCSafeQ1 runs Q1 with value-semantics field access.
func SMCSafeQ1(db *SMCDB, s *core.Session, p Params) []Q1Row {
	cutoff := p.Q1Cutoff()
	q := NewSMCQueries(db)
	groups := make(map[int64]*q1Acc, 8)
	one := decimal.FromInt64(1)

	s.Enter()
	en := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			// Value loads, as managed compiled code would perform.
			ship := dateAt(blk, i, q.lShip)
			if ship > cutoff {
				continue
			}
			qty := *decAt(blk, i, q.lQty)
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			tax := *decAt(blk, i, q.lTax)
			k := q1Key(i32At(blk, i, q.lRet), i32At(blk, i, q.lStat))
			a := groups[k]
			if a == nil {
				a = &q1Acc{}
				groups[k] = a
			}
			a.sumQty = a.sumQty.Add(qty)
			a.sumBase = a.sumBase.Add(ext)
			a.sumDisc = a.sumDisc.Add(dsc)
			disc := ext.Mul(one.Sub(dsc))
			a.sumCharge = a.sumCharge.Add(disc.Mul(one.Add(tax)))
			a.count++
		}
	}
	en.Close()
	s.Exit()
	return q1Finish(groups)
}

// SMCSafeQ2 runs Q2 with value-semantics reference joins.
func SMCSafeQ2(db *SMCDB, s *core.Session, p Params) []Q2Row {
	q := NewSMCQueries(db)
	typeSuffix := []byte(p.Q2Type)
	region := []byte(p.Q2Region)

	s.Enter()
	defer s.Exit()

	qualifies := func(blk *mem.Block, i int) (pobj, sobj, nobj mem.Obj, pk int64, ok bool) {
		ps := mem.Obj{Blk: blk, Slot: i}
		pobj, err := q.frPSPart.Deref(s, ps)
		if err != nil {
			return
		}
		if *(*int32)(pobj.Field(q.pSize)) != p.Q2Size {
			return
		}
		if !bytes.HasSuffix(objStr(pobj, q.pType), typeSuffix) {
			return
		}
		sobj, err = q.frPSSupp.Deref(s, ps)
		if err != nil {
			return
		}
		nobj, err = q.frSNation.Deref(s, sobj)
		if err != nil {
			return
		}
		robj, err := q.frNRegion.Deref(s, nobj)
		if err != nil {
			return
		}
		if !bytes.Equal(objStr(robj, q.rName), region) {
			return
		}
		pk = *(*int64)(pobj.Field(q.pKey))
		ok = true
		return
	}

	minCost := make(map[int64]decimal.Dec128)
	en := db.PartSupps.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			_, _, _, pk, ok2 := qualifies(blk, i)
			if !ok2 {
				continue
			}
			cost := *decAt(blk, i, q.psCost)
			cur, found := minCost[pk]
			if !found || cost.Less(cur) {
				minCost[pk] = cost
			}
		}
	}
	en.Close()

	var rows []Q2Row
	en2 := db.PartSupps.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			pobj, sobj, nobj, pk, ok2 := qualifies(blk, i)
			if !ok2 {
				continue
			}
			if mc, found := minCost[pk]; !found || *decAt(blk, i, q.psCost) != mc {
				continue
			}
			rows = append(rows, Q2Row{
				AcctBal: *(*decimal.Dec128)(sobj.Field(q.sBal)),
				SName:   string(objStr(sobj, q.sName)),
				NName:   string(objStr(nobj, q.nName)),
				PartKey: pk,
				Mfgr:    string(objStr(pobj, q.pMfgr)),
				Address: string(objStr(sobj, q.sAddr)),
				Phone:   string(objStr(sobj, q.sPhone)),
				Comment: string(objStr(sobj, q.sCmnt)),
			})
		}
	}
	en2.Close()
	return SortQ2(rows)
}

// SMCSafeQ3 runs Q3 with value-semantics reference joins.
func SMCSafeQ3(db *SMCDB, s *core.Session, p Params) []Q3Row {
	q := NewSMCQueries(db)
	type acc struct {
		rev   decimal.Dec128
		date  types.Date
		sprio int32
	}
	groups := make(map[int64]*acc)
	segment := []byte(p.Q3Segment)
	one := decimal.FromInt64(1)

	s.Enter()
	en := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			if dateAt(blk, i, q.lShip) <= p.Q3Date {
				continue
			}
			l := mem.Obj{Blk: blk, Slot: i}
			oobj, err := q.frLOrder.Deref(s, l)
			if err != nil {
				continue
			}
			odate := *(*types.Date)(oobj.Field(q.oDate))
			if odate >= p.Q3Date {
				continue
			}
			cobj, err := q.frOCust.Deref(s, oobj)
			if err != nil {
				continue
			}
			if !bytes.Equal(objStr(cobj, q.cSeg), segment) {
				continue
			}
			ok64 := *(*int64)(oobj.Field(q.oKey))
			a := groups[ok64]
			if a == nil {
				a = &acc{date: odate, sprio: *(*int32)(oobj.Field(q.oSprio))}
				groups[ok64] = a
			}
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			a.rev = a.rev.Add(ext.Mul(one.Sub(dsc)))
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

// SMCSafeQ4 runs Q4 with value-semantics reference joins.
func SMCSafeQ4(db *SMCDB, s *core.Session, p Params) []Q4Row {
	q := NewSMCQueries(db)
	hi := p.Q4Date.AddMonths(3)
	late := make(map[int64]bool)

	s.Enter()
	en := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			if dateAt(blk, i, q.lCommit) >= dateAt(blk, i, q.lRecv) {
				continue
			}
			oobj, err := q.frLOrder.Deref(s, mem.Obj{Blk: blk, Slot: i})
			if err != nil {
				continue
			}
			od := *(*types.Date)(oobj.Field(q.oDate))
			if od >= p.Q4Date && od < hi {
				late[i64At(blk, i, q.lOrderKey)] = true
			}
		}
	}
	en.Close()

	counts := make(map[string]int64)
	en2 := db.Orders.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			od := dateAt(blk, i, q.oDate)
			if od < p.Q4Date || od >= hi {
				continue
			}
			if late[i64At(blk, i, q.oKey)] {
				counts[string(strAt(blk, i, q.oPrio))]++
			}
		}
	}
	en2.Close()
	s.Exit()

	rows := make([]Q4Row, 0, len(counts))
	for pr, n := range counts {
		rows = append(rows, Q4Row{Priority: pr, Count: n})
	}
	SortQ4(rows)
	return rows
}

// SMCSafeQ5 runs Q5 with value-semantics reference joins.
func SMCSafeQ5(db *SMCDB, s *core.Session, p Params) []Q5Row {
	q := NewSMCQueries(db)
	hi := p.Q5Date.AddYears(1)
	region := []byte(p.Q5Region)
	rev := make(map[string]decimal.Dec128)
	one := decimal.FromInt64(1)

	s.Enter()
	en := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			l := mem.Obj{Blk: blk, Slot: i}
			oobj, err := q.frLOrder.Deref(s, l)
			if err != nil {
				continue
			}
			od := *(*types.Date)(oobj.Field(q.oDate))
			if od < p.Q5Date || od >= hi {
				continue
			}
			sobj, err := q.frLSupp.Deref(s, l)
			if err != nil {
				continue
			}
			snobj, err := q.frSNation.Deref(s, sobj)
			if err != nil {
				continue
			}
			robj, err := q.frNRegion.Deref(s, snobj)
			if err != nil {
				continue
			}
			if !bytes.Equal(objStr(robj, q.rName), region) {
				continue
			}
			cobj, err := q.frOCust.Deref(s, oobj)
			if err != nil {
				continue
			}
			cnobj, err := q.frCNation.Deref(s, cobj)
			if err != nil {
				continue
			}
			if *(*int64)(cnobj.Field(q.nKey)) != *(*int64)(snobj.Field(q.nKey)) {
				continue
			}
			name := string(objStr(snobj, q.nName))
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			rev[name] = rev[name].Add(ext.Mul(one.Sub(dsc)))
		}
	}
	en.Close()
	s.Exit()

	rows := make([]Q5Row, 0, len(rev))
	for n, v := range rev {
		rows = append(rows, Q5Row{Nation: n, Revenue: v})
	}
	SortQ5(rows)
	return rows
}

// SMCSafeQ6 runs Q6 with value-semantics field access.
func SMCSafeQ6(db *SMCDB, s *core.Session, p Params) decimal.Dec128 {
	q := NewSMCQueries(db)
	hi := p.Q6Date.AddYears(1)
	lo := p.Q6Discount.Sub(decimal.MustParse("0.01"))
	hiD := p.Q6Discount.Add(decimal.MustParse("0.01"))
	var sum decimal.Dec128

	s.Enter()
	en := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			ship := dateAt(blk, i, q.lShip)
			if ship < p.Q6Date || ship >= hi {
				continue
			}
			dsc := *decAt(blk, i, q.lDisc)
			if dsc.Less(lo) || hiD.Less(dsc) {
				continue
			}
			qty := *decAt(blk, i, q.lQty)
			if !qty.Less(p.Q6Quantity) {
				continue
			}
			ext := *decAt(blk, i, q.lExt)
			sum = sum.Add(ext.Mul(dsc))
		}
	}
	en.Close()
	s.Exit()
	return sum
}

// SMCSafeAll runs all six safe-variant queries.
func SMCSafeAll(db *SMCDB, s *core.Session, p Params) *Result {
	return &Result{
		Q1: SMCSafeQ1(db, s, p),
		Q2: SMCSafeQ2(db, s, p),
		Q3: SMCSafeQ3(db, s, p),
		Q4: SMCSafeQ4(db, s, p),
		Q5: SMCSafeQ5(db, s, p),
		Q6: SMCSafeQ6(db, s, p),
	}
}
