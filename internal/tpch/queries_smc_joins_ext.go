package tpch

import (
	"bytes"
	"context"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/types"
)

// Parallel compiled extended-join queries (Q7, Q8, Q9) on the unified
// pipeline layer. Like Q3/Q5/Q10, the per-block kernels are shared
// verbatim with the serial drivers in queries_smc_ext.go, and the group
// state lives in region tables keyed by packed integers (direction+year,
// year, nation+year) rather than Go-heap maps, so it merges per
// partition in parallel and vanishes wholesale with the leased arenas.
//
// Q9 shows the pipeline's multi-stage shape: its partsupp cost-table
// build — a serial pre-pass before this layer existed — is now a first
// Table stage whose merged result feeds the main lineitem scan
// read-only.

// q7/q8/q9 group tables are tiny (directions×years, years,
// nations×years); q9's cost table is keyed by (partkey, suppkey) and
// sized like the partsupp collection.
const (
	extTableHint  = 16
	q9CostHint    = 4096
	q9ProfitHint  = 1024
	q9NationShift = 16
)

// q7Block scans one lineitem block into a Q7 revenue table keyed by
// q7Dir(direction, ship year): the compiled per-block volume-shipping
// kernel, shared by the serial and parallel drivers. s must be the
// session whose critical section covers blk.
func (q *SMCQueries) q7Block(s *core.Session, blk *mem.Block, nation1, nation2 []byte, rev *region.PartitionedTable[decimal.Dec128]) {
	one := decimal.FromInt64(1)
	shipc, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lExt), colOf(blk, q.lDisc)
	ord, supp := colOf(blk, q.frLOrder.Field), colOf(blk, q.frLSupp.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		ship := shipc.date(i)
		if ship < q7DateLo || ship > q7DateHi {
			continue
		}
		l := mem.Obj{Blk: blk, Slot: i}
		sobj, err := q.deref(s, &q.frLSupp, supp.at(i), l)
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
		oobj, err := q.deref(s, &q.frLOrder, ord.at(i), l)
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
		r := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		decimal.AddAssign(rev.At(int64(q7Dir(is1, ship.Year()))), &r)
	}
}

// q7Row materializes one merged Q7 group from its packed direction+year
// key, shared by the serial and partition-sharded finishing passes.
func q7Row(p Params, k int64, v decimal.Dec128) Q7Row {
	sn, cn := p.Q7Nation1, p.Q7Nation2
	if k&1 == 1 {
		sn, cn = cn, sn
	}
	return Q7Row{SuppNation: sn, CustNation: cn, Year: int32(k >> 1), Revenue: v}
}

// q8Block scans one lineitem block into a Q8 market-share table keyed by
// order year: the compiled per-block kernel, shared by the serial and
// parallel drivers.
func (q *SMCQueries) q8Block(s *core.Session, blk *mem.Block, nation, regionName, ptype []byte, groups *region.PartitionedTable[q8Acc]) {
	one := decimal.FromInt64(1)
	ext, disc := colOf(blk, q.lExt), colOf(blk, q.lDisc)
	ord, part, supp := colOf(blk, q.frLOrder.Field), colOf(blk, q.frLPart.Field), colOf(blk, q.frLSupp.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		l := mem.Obj{Blk: blk, Slot: i}
		oobj, err := q.deref(s, &q.frLOrder, ord.at(i), l)
		if err != nil {
			continue
		}
		od := *(*types.Date)(oobj.Field(q.oDate))
		if od < q7DateLo || od > q7DateHi {
			continue
		}
		pobj, err := q.deref(s, &q.frLPart, part.at(i), l)
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
		if !bytes.Equal(objStr(crobj, q.rName), regionName) {
			continue
		}
		a := groups.At(int64(od.Year()))
		vol := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		decimal.AddAssign(&a.total, &vol)
		sobj, err := q.deref(s, &q.frLSupp, supp.at(i), l)
		if err != nil {
			continue
		}
		snobj, err := q.Deref(s, &q.frSNation, sobj)
		if err != nil {
			continue
		}
		if bytes.Equal(objStr(snobj, q.nName), nation) {
			decimal.AddAssign(&a.nation, &vol)
		}
	}
}

// mergeQ8Acc folds one worker's per-year volume sums into the merged
// state; decimal addition is exact, so merge order cannot change results.
func mergeQ8Acc(dst, src *q8Acc) {
	decimal.AddAssign(&dst.nation, &src.nation)
	decimal.AddAssign(&dst.total, &src.total)
}

// q8Row computes one year's market share from its merged volume sums.
func q8Row(k int64, a *q8Acc) Q8Row {
	share := decimal.Zero
	if !a.total.IsZero() {
		share = a.nation.Div(a.total)
	}
	return Q8Row{Year: int32(k), MktShare: share}
}

// q9CostBlock scans one partsupp block into the (partkey, suppkey) →
// supplycost table: the compiled per-block kernel of Q9's first stage,
// shared by the serial and parallel drivers.
func (q *SMCQueries) q9CostBlock(s *core.Session, blk *mem.Block, cost *region.PartitionedTable[decimal.Dec128]) {
	part, supp, cc := colOf(blk, q.frPSPart.Field), colOf(blk, q.frPSSupp.Field), colOf(blk, q.psCost)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		ps := mem.Obj{Blk: blk, Slot: i}
		pobj, err := q.deref(s, &q.frPSPart, part.at(i), ps)
		if err != nil {
			continue
		}
		sobj, err := q.deref(s, &q.frPSSupp, supp.at(i), ps)
		if err != nil {
			continue
		}
		k := packPSKey(
			*(*int64)(pobj.Field(q.pKey)),
			*(*int64)(sobj.Field(q.sKey)),
		)
		*cost.At(k) = *cc.dec(i)
	}
}

// mergeCost folds one worker's cost entries into the merged table. A
// (partkey, suppkey) pair identifies at most one live partsupp row, so
// every key is written by at most one worker and assignment suffices
// (worker order still fixes the outcome if churn ever produces
// duplicates).
func mergeCost(dst, src *decimal.Dec128) { *dst = *src }

// packNationYear packs a Q9 group key (supplier nation key, order year)
// into one region-table key.
func packNationYear(nationKey int64, year int32) int64 {
	return nationKey<<q9NationShift | int64(uint16(year))
}

// q9Block scans one lineitem block into a Q9 profit table keyed by
// packNationYear, probing the (read-only) merged cost table from the
// first stage: the compiled per-block kernel, shared by the serial and
// parallel drivers. A nil cost table (empty partsupp) yields no rows.
func (q *SMCQueries) q9Block(s *core.Session, blk *mem.Block, color []byte, cost, profit *region.PartitionedTable[decimal.Dec128]) {
	if cost == nil {
		return
	}
	one := decimal.FromInt64(1)
	ext, disc, qty := colOf(blk, q.lExt), colOf(blk, q.lDisc), colOf(blk, q.lQty)
	ord, part, supp := colOf(blk, q.frLOrder.Field), colOf(blk, q.frLPart.Field), colOf(blk, q.frLSupp.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		l := mem.Obj{Blk: blk, Slot: i}
		pobj, err := q.deref(s, &q.frLPart, part.at(i), l)
		if err != nil {
			continue
		}
		if !bytes.Contains(objStr(pobj, q.pName), color) {
			continue
		}
		sobj, err := q.deref(s, &q.frLSupp, supp.at(i), l)
		if err != nil {
			continue
		}
		k := packPSKey(
			*(*int64)(pobj.Field(q.pKey)),
			*(*int64)(sobj.Field(q.sKey)),
		)
		c := cost.Get(k)
		if c == nil {
			continue
		}
		oobj, err := q.deref(s, &q.frLOrder, ord.at(i), l)
		if err != nil {
			continue
		}
		snobj, err := q.Deref(s, &q.frSNation, sobj)
		if err != nil {
			continue
		}
		amount := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		amount = amount.Sub(c.Mul(*qty.dec(i)))
		g := packNationYear(
			*(*int64)(snobj.Field(q.nKey)),
			int32((*(*types.Date)(oobj.Field(q.oDate))).Year()),
		)
		decimal.AddAssign(profit.At(g), &amount)
	}
}

// nationNames resolves nation key → name by scanning the tiny nation
// collection in its own critical section — the dimension-resolution
// lookup Q9's finishing pass joins the packed group keys against. A
// nation removed in the gap after the scan simply resolves to the empty
// name (removed-object semantics, §2).
func (q *SMCQueries) nationNames(s *core.Session) map[int64]string {
	names := make(map[int64]string, 32)
	s.Enter()
	en := q.db.Nations.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		key, name := colOf(blk, q.nKey), colOf(blk, q.nName)
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			names[key.i64(i)] = string(name.str(i))
		}
	}
	en.Close()
	s.Exit()
	return names
}

// q9Row materializes one merged Q9 group from its packed key; names is
// read-only here, so partition-sharded emission races with nothing.
func q9Row(names map[int64]string, k int64, v decimal.Dec128) Q9Row {
	return Q9Row{
		Nation:    names[k>>q9NationShift],
		Year:      int32(uint16(k)),
		SumProfit: v,
	}
}

// Q7ParCtx is Q7 fanned out over `workers` block-sharded scan workers on
// the pipeline layer, with partition-sharded row emission. Results are
// identical to Q7 on a quiesced collection. It is admission-gated and
// cancelable at block-claim granularity, and its errors reach the
// caller (see Q3ParCtx).
func (q *SMCQueries) Q7ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q7Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	nation1, nation2 := []byte(p.Q7Nation1), []byte(p.Q7Nation2)
	merged, err := query.Table(pl, q.db.Lineitems, extTableHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[decimal.Dec128]) {
			q.q7Block(ws, blk, nation1, nation2, t)
		}, mergeDec)
	if err != nil {
		return nil, err
	}
	rows, err := query.PartitionRows(pl, merged, func(pt *region.Table[decimal.Dec128], out *[]Q7Row) {
		pt.Range(func(k int64, v *decimal.Dec128) bool {
			*out = append(*out, q7Row(p, k, *v))
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	SortQ7(rows)
	return rows, nil
}

// Q8ParCtx is Q8 fanned out over `workers` block-sharded scan workers on
// the pipeline layer; shares compute from exact merged sums, so worker
// count cannot change them (see Q7ParCtx for the contract).
func (q *SMCQueries) Q8ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q8Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	nation := []byte(p.Q8Nation)
	regionName := []byte(p.Q8Region)
	ptype := []byte(p.Q8Type)
	merged, err := query.Table(pl, q.db.Lineitems, extTableHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[q8Acc]) {
			q.q8Block(ws, blk, nation, regionName, ptype, t)
		}, mergeQ8Acc)
	if err != nil {
		return nil, err
	}
	rows, err := query.PartitionRows(pl, merged, func(pt *region.Table[q8Acc], out *[]Q8Row) {
		pt.Range(func(k int64, a *q8Acc) bool {
			*out = append(*out, q8Row(k, a))
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	SortQ8(rows)
	return rows, nil
}

// Q9ParCtx is Q9 as a two-stage pipeline: the partsupp cost-table build
// fans out as a first Table stage, and its merged result feeds the main
// lineitem scan read-only. The finishing pass resolves nation names
// against the dimension collection and emits rows partition-sharded (see
// Q7ParCtx for the contract).
func (q *SMCQueries) Q9ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q9Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	color := []byte(p.Q9Color)
	// The cost table keys every (part, supplier) pair — one entry per
	// partsupp row — so it takes the adaptive hint.
	cost, err := query.Table(pl, q.db.PartSupps, query.AdaptiveHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[decimal.Dec128]) {
			q.q9CostBlock(ws, blk, t)
		}, mergeCost)
	if err != nil {
		return nil, err
	}
	profit, err := query.Table(pl, q.db.Lineitems, q9ProfitHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[decimal.Dec128]) {
			q.q9Block(ws, blk, color, cost, t)
		}, mergeDec)
	if err != nil {
		return nil, err
	}
	rows := make([]Q9Row, 0)
	if profit != nil && profit.Len() > 0 {
		names := q.nationNames(s)
		rows, err = query.PartitionRows(pl, profit, func(pt *region.Table[decimal.Dec128], out *[]Q9Row) {
			pt.Range(func(k int64, v *decimal.Dec128) bool {
				*out = append(*out, q9Row(names, k, *v))
				return true
			})
		})
		if err != nil {
			return nil, err
		}
	}
	SortQ9(rows)
	return rows, nil
}
