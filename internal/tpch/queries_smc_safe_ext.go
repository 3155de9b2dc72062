package tpch

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/types"
)

// "Safe" Q7–Q10 over self-managed collections: block enumeration plus
// value-semantics field access, mirroring the compiled managed queries as
// in queries_smc_safe.go. The difference from the unsafe variants is the
// same as for Q1–Q6: every decimal operand is copied out of block memory
// before arithmetic, no in-place pointer math.

// SMCSafeQ7 runs the volume-shipping query with value-semantics access.
func SMCSafeQ7(db *SMCDB, s *core.Session, p Params) []Q7Row {
	q := NewSMCQueries(db)
	nation1 := []byte(p.Q7Nation1)
	nation2 := []byte(p.Q7Nation2)
	one := decimal.FromInt64(1)
	rev := make(map[int32]decimal.Dec128, 4)

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
			if ship < q7DateLo || ship > q7DateHi {
				continue
			}
			l := mem.Obj{Blk: blk, Slot: i}
			sobj, err := q.Deref(s, &q.frLSupp, l)
			if err != nil {
				continue
			}
			snobj, err := q.Deref(s, &q.frSNation, sobj)
			if err != nil {
				continue
			}
			sn := objStr(snobj, q.nName)
			is1, is2 := bytes.Equal(sn, nation1), bytes.Equal(sn, nation2)
			if !is1 && !is2 {
				continue
			}
			oobj, err := q.Deref(s, &q.frLOrder, l)
			if err != nil {
				continue
			}
			cobj, err := q.Deref(s, &q.frOCust, oobj)
			if err != nil {
				continue
			}
			cnobj, err := q.Deref(s, &q.frCNation, cobj)
			if err != nil {
				continue
			}
			cn := objStr(cnobj, q.nName)
			if is1 && !bytes.Equal(cn, nation2) {
				continue
			}
			if is2 && !bytes.Equal(cn, nation1) {
				continue
			}
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			k := q7Dir(is1, ship.Year())
			rev[k] = rev[k].Add(ext.Mul(one.Sub(dsc)))
		}
	}
	en.Close()
	s.Exit()

	rows := make([]Q7Row, 0, len(rev))
	for k, v := range rev {
		sn, cn := p.Q7Nation1, p.Q7Nation2
		if k&1 == 1 {
			sn, cn = cn, sn
		}
		rows = append(rows, Q7Row{SuppNation: sn, CustNation: cn, Year: k >> 1, Revenue: v})
	}
	SortQ7(rows)
	return rows
}

// SMCSafeQ8 runs the national-market-share query with value-semantics
// access.
func SMCSafeQ8(db *SMCDB, s *core.Session, p Params) []Q8Row {
	q := NewSMCQueries(db)
	nation := []byte(p.Q8Nation)
	region := []byte(p.Q8Region)
	ptype := []byte(p.Q8Type)
	one := decimal.FromInt64(1)
	groups := make(map[int32]*q8Acc, 2)

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
			oobj, err := q.Deref(s, &q.frLOrder, l)
			if err != nil {
				continue
			}
			od := *(*types.Date)(oobj.Field(q.oDate))
			if od < q7DateLo || od > q7DateHi {
				continue
			}
			pobj, err := q.Deref(s, &q.frLPart, l)
			if err != nil {
				continue
			}
			if !bytes.Equal(objStr(pobj, q.pType), ptype) {
				continue
			}
			cobj, err := q.Deref(s, &q.frOCust, oobj)
			if err != nil {
				continue
			}
			cnobj, err := q.Deref(s, &q.frCNation, cobj)
			if err != nil {
				continue
			}
			crobj, err := q.Deref(s, &q.frNRegion, cnobj)
			if err != nil {
				continue
			}
			if !bytes.Equal(objStr(crobj, q.rName), region) {
				continue
			}
			y := int32(od.Year())
			a := groups[y]
			if a == nil {
				a = &q8Acc{}
				groups[y] = a
			}
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			vol := ext.Mul(one.Sub(dsc))
			a.total = a.total.Add(vol)
			sobj, err := q.Deref(s, &q.frLSupp, l)
			if err != nil {
				continue
			}
			snobj, err := q.Deref(s, &q.frSNation, sobj)
			if err != nil {
				continue
			}
			if bytes.Equal(objStr(snobj, q.nName), nation) {
				a.nation = a.nation.Add(vol)
			}
		}
	}
	en.Close()
	s.Exit()
	return q8Finish(groups)
}

// SMCSafeQ9 runs the product-type-profit query with value-semantics
// access.
func SMCSafeQ9(db *SMCDB, s *core.Session, p Params) []Q9Row {
	q := NewSMCQueries(db)
	color := []byte(p.Q9Color)
	one := decimal.FromInt64(1)

	s.Enter()
	cost := make(map[psKey]decimal.Dec128, 1024)
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
			ps := mem.Obj{Blk: blk, Slot: i}
			pobj, err := q.Deref(s, &q.frPSPart, ps)
			if err != nil {
				continue
			}
			sobj, err := q.Deref(s, &q.frPSSupp, ps)
			if err != nil {
				continue
			}
			k := psKey{
				Part: *(*int64)(pobj.Field(q.pKey)),
				Supp: *(*int64)(sobj.Field(q.sKey)),
			}
			cost[k] = *decAt(blk, i, q.psCost)
		}
	}
	en.Close()

	type gk struct {
		nation string
		year   int32
	}
	profit := make(map[gk]decimal.Dec128)
	en2 := db.Lineitems.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			l := mem.Obj{Blk: blk, Slot: i}
			pobj, err := q.Deref(s, &q.frLPart, l)
			if err != nil {
				continue
			}
			if !bytes.Contains(objStr(pobj, q.pName), color) {
				continue
			}
			sobj, err := q.Deref(s, &q.frLSupp, l)
			if err != nil {
				continue
			}
			k := psKey{
				Part: *(*int64)(pobj.Field(q.pKey)),
				Supp: *(*int64)(sobj.Field(q.sKey)),
			}
			c, ok := cost[k]
			if !ok {
				continue
			}
			oobj, err := q.Deref(s, &q.frLOrder, l)
			if err != nil {
				continue
			}
			snobj, err := q.Deref(s, &q.frSNation, sobj)
			if err != nil {
				continue
			}
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			qty := *decAt(blk, i, q.lQty)
			amount := ext.Mul(one.Sub(dsc)).Sub(c.Mul(qty))
			g := gk{
				nation: string(objStr(snobj, q.nName)),
				year:   int32((*(*types.Date)(oobj.Field(q.oDate))).Year()),
			}
			profit[g] = profit[g].Add(amount)
		}
	}
	en2.Close()
	s.Exit()

	rows := make([]Q9Row, 0, len(profit))
	for k, v := range profit {
		rows = append(rows, Q9Row{Nation: k.nation, Year: k.year, SumProfit: v})
	}
	SortQ9(rows)
	return rows
}

// SMCSafeQ10 runs the returned-item report with value-semantics access:
// customer fields are copied into the accumulator as they are first seen,
// as the compiled managed query materializes them.
func SMCSafeQ10(db *SMCDB, s *core.Session, p Params) []Q10Row {
	q := NewSMCQueries(db)
	hi := p.Q10Date.AddMonths(3)
	one := decimal.FromInt64(1)
	rev := make(map[int64]*Q10Row)

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
			if i32At(blk, i, q.lRet) != 'R' {
				continue
			}
			l := mem.Obj{Blk: blk, Slot: i}
			oobj, err := q.Deref(s, &q.frLOrder, l)
			if err != nil {
				continue
			}
			od := *(*types.Date)(oobj.Field(q.oDate))
			if od < p.Q10Date || od >= hi {
				continue
			}
			cobj, err := q.Deref(s, &q.frOCust, oobj)
			if err != nil {
				continue
			}
			ck := *(*int64)(cobj.Field(q.cKey))
			row := rev[ck]
			if row == nil {
				row = &Q10Row{
					CustKey: ck,
					Name:    string(objStr(cobj, q.cName)),
					AcctBal: *(*decimal.Dec128)(cobj.Field(q.cBal)),
					Address: string(objStr(cobj, q.cAddr)),
					Phone:   string(objStr(cobj, q.cPhone)),
					Comment: string(objStr(cobj, q.cCmnt)),
				}
				if cnobj, err := q.Deref(s, &q.frCNation, cobj); err == nil {
					row.Nation = string(objStr(cnobj, q.nName))
				}
				rev[ck] = row
			}
			ext := *decAt(blk, i, q.lExt)
			dsc := *decAt(blk, i, q.lDisc)
			row.Revenue = row.Revenue.Add(ext.Mul(one.Sub(dsc)))
		}
	}
	en.Close()
	s.Exit()

	rows := make([]Q10Row, 0, len(rev))
	for _, r := range rev {
		rows = append(rows, *r)
	}
	return SortQ10(rows)
}

// SMCSafeAllX runs the four extended safe-variant queries.
func SMCSafeAllX(db *SMCDB, s *core.Session, p Params) *ResultX {
	return &ResultX{
		Q7:  SMCSafeQ7(db, s, p),
		Q8:  SMCSafeQ8(db, s, p),
		Q9:  SMCSafeQ9(db, s, p),
		Q10: SMCSafeQ10(db, s, p),
	}
}
