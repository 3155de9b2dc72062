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

// Parallel compiled join queries (Q3, Q5, Q10) over the unified
// query-pipeline layer. The §7 unsafe-query optimization — region-
// allocated intermediates discarded wholesale — is rethought for
// multi-core:
//
//   - every scan worker leases a private arena from the query object's
//     ArenaPool and builds a region.PartitionedTable of group state in
//     it, so the hot join loop writes zero shared mutable state;
//   - the per-block kernels (q3Block, q5Block, q10Block) are shared
//     verbatim between the serial queries and the *ParCtx drivers,
//     exactly as Q1ParCtx/Q6ParCtx share q1Block/q6Block;
//   - after the scan the workers' tables merge per partition in
//     parallel (worker order within each partition keeps the fold
//     deterministic) and the finishing/dimension-resolution passes shard
//     too — over dimension blocks (query.Rows) or over the merged
//     table's partitions (query.PartitionRows).
//
// The scaffolding that drives all of this — arena leases, fan-out over
// mem.ScanParallelPredCtx, parallel merge, parallel finish — is
// internal/query; the drivers here shrink to kernel + finish closures.
// Each query has exactly two paths: the serial oracle (Qn) and its
// pipeline driver (QnParCtx), whose errors reach the caller.

// joinTableHint sizes a worker's partitioned group table. Tables grow on
// demand; starting small keeps every value array inside one arena chunk,
// where a table sized from the input would take a dedicated mapping that
// each arena reset unmaps again.
const joinTableHint = 1024

// mergeDec accumulates one worker's revenue partial into the merged
// state; decimal addition is exact, so merge order cannot change results.
func mergeDec(dst, src *decimal.Dec128) { decimal.AddAssign(dst, src) }

// mergeQ3Acc folds one worker's Q3 group partial into the merged state.
// date and sprio are functionally dependent on the group key (they come
// from the one order with that key), so first-wins is deterministic.
func mergeQ3Acc(dst, src *q3Acc) {
	if !dst.seen {
		dst.seen, dst.date, dst.sprio = src.seen, src.date, src.sprio
	}
	decimal.AddAssign(&dst.rev, &src.rev)
}

// q2Min is Q2's per-part minimum-cost state; pointer-free so it can
// live in the query region.
type q2Min struct {
	cost decimal.Dec128
	seen bool
}

// q2MinBlock scans one partsupp block into a per-part minimum-cost
// table: the compiled first-pass Q2 kernel (partsupp→part and
// partsupp→supplier→nation→region reference joins).
func (q *SMCQueries) q2MinBlock(s *core.Session, blk *mem.Block, size int32, typeSuffix, regionName []byte, minCost *region.PartitionedTable[q2Min]) {
	part, supp, cost := colOf(blk, q.frPSPart.Field), colOf(blk, q.frPSSupp.Field), colOf(blk, q.psCost)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		pobj, err := q.frPSPart.DerefAt(s, part.at(i))
		if err != nil {
			continue
		}
		if *(*int32)(pobj.Field(q.pSize)) != size {
			continue
		}
		if !bytes.HasSuffix(objStr(pobj, q.pType), typeSuffix) {
			continue
		}
		sobj, err := q.frPSSupp.DerefAt(s, supp.at(i))
		if err != nil {
			continue
		}
		if _, ok := q.suppInRegion(s, sobj, regionName); !ok {
			continue
		}
		c := cost.dec(i)
		a := minCost.At(*(*int64)(pobj.Field(q.pKey)))
		if !a.seen || c.Less(a.cost) {
			a.seen, a.cost = true, *c
		}
	}
}

// suppInRegion hops supplier→nation→region and reports whether the
// supplier's region is named regionName, returning the nation on the
// way for the callers that print it.
func (q *SMCQueries) suppInRegion(s *core.Session, sobj mem.Obj, regionName []byte) (mem.Obj, bool) {
	nobj, err := q.frSNation.Deref(s, sobj)
	if err != nil {
		return mem.Obj{}, false
	}
	robj, err := q.frNRegion.Deref(s, nobj)
	if err != nil {
		return mem.Obj{}, false
	}
	return nobj, bytes.Equal(objStr(robj, q.rName), regionName)
}

// q2EmitBlock scans one partsupp block for suppliers achieving their
// part's minimum cost, probing the first-pass table read-only: the
// compiled second-pass Q2 kernel.
func (q *SMCQueries) q2EmitBlock(s *core.Session, blk *mem.Block, regionName []byte, minCost *region.PartitionedTable[q2Min], out *[]Q2Row) {
	part, supp, cost := colOf(blk, q.frPSPart.Field), colOf(blk, q.frPSSupp.Field), colOf(blk, q.psCost)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		pobj, err := q.frPSPart.DerefAt(s, part.at(i))
		if err != nil {
			continue
		}
		pk := *(*int64)(pobj.Field(q.pKey))
		mc := minCost.Get(pk)
		if mc == nil || !mc.seen || *cost.dec(i) != mc.cost {
			continue
		}
		sobj, err := q.frPSSupp.DerefAt(s, supp.at(i))
		if err != nil {
			continue
		}
		nobj, ok := q.suppInRegion(s, sobj, regionName)
		if !ok {
			continue
		}
		*out = append(*out, Q2Row{
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

// q3Block scans one lineitem block into a Q3 group table: the compiled
// per-block join kernel (lineitem→order→customer), shared by the serial
// and parallel drivers. s must be the session whose critical section
// covers blk.
func (q *SMCQueries) q3Block(s *core.Session, blk *mem.Block, date types.Date, segment []byte, groups *region.PartitionedTable[q3Acc]) {
	one := decimal.FromInt64(1)
	ship, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lExt), colOf(blk, q.lDisc)
	ord := colOf(blk, q.frLOrder.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) || ship.date(i) <= date {
			continue
		}
		oobj, err := q.frLOrder.DerefAt(s, ord.at(i))
		if err != nil {
			continue
		}
		if *(*types.Date)(oobj.Field(q.oDate)) >= date {
			continue
		}
		cobj, err := q.frOCust.Deref(s, oobj)
		if err != nil {
			continue
		}
		if !bytes.Equal(objStr(cobj, q.cSeg), segment) {
			continue
		}
		a := groups.At(*(*int64)(oobj.Field(q.oKey)))
		if !a.seen {
			a.seen = true
			a.date = *(*types.Date)(oobj.Field(q.oDate))
			a.sprio = *(*int32)(oobj.Field(q.oSprio))
		}
		rev := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		decimal.AddAssign(&a.rev, &rev)
	}
}

// q3Row materializes one merged Q3 group, shared by the serial and
// partition-sharded finishing passes.
func q3Row(k int64, a *q3Acc) Q3Row {
	return Q3Row{OrderKey: k, Revenue: a.rev, OrderDate: a.date, ShipPriority: a.sprio}
}

// q3Rows materializes the (merged) Q3 group state serially; nil means no
// group survived the filters.
func q3Rows(groups *region.PartitionedTable[q3Acc]) []Q3Row {
	var rows []Q3Row
	if groups != nil {
		rows = make([]Q3Row, 0, groups.Len())
		groups.Range(func(k int64, a *q3Acc) bool {
			rows = append(rows, q3Row(k, a))
			return true
		})
	} else {
		rows = make([]Q3Row, 0)
	}
	return SortQ3(rows)
}

// q5Block scans one lineitem block into a Q5 revenue table keyed by the
// supplier's nation key: the compiled per-block five-way join kernel,
// shared by the serial and parallel drivers.
func (q *SMCQueries) q5Block(s *core.Session, blk *mem.Block, lo, hi types.Date, regionName []byte, rev *region.PartitionedTable[decimal.Dec128]) {
	one := decimal.FromInt64(1)
	ext, disc := colOf(blk, q.lExt), colOf(blk, q.lDisc)
	ord, supp := colOf(blk, q.frLOrder.Field), colOf(blk, q.frLSupp.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		oobj, err := q.frLOrder.DerefAt(s, ord.at(i))
		if err != nil {
			continue
		}
		od := *(*types.Date)(oobj.Field(q.oDate))
		if od < lo || od >= hi {
			continue
		}
		sobj, err := q.frLSupp.DerefAt(s, supp.at(i))
		if err != nil {
			continue
		}
		snobj, ok := q.suppInRegion(s, sobj, regionName)
		if !ok {
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
		snKey := *(*int64)(snobj.Field(q.nKey))
		if *(*int64)(cnobj.Field(q.nKey)) != snKey {
			continue
		}
		r := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		decimal.AddAssign(rev.At(snKey), &r)
	}
}

// q5Finish resolves nation keys to names by scanning the (tiny) nation
// collection and emits the ordered Q5 rows. It runs in its own critical
// section, after the lineitem scan's sections have closed: on a quiesced
// collection results are exactly the pre-refactor rows, while under
// concurrent mutation a nation removed in the gap between the two
// sections is simply not emitted — the removed-object semantics (§2)
// the rest of the query surface already has, and the price of sharing
// this pass with the parallel drivers (whose scan pins are already
// released by the time the merge completes).
func (q *SMCQueries) q5Finish(s *core.Session, rev *region.PartitionedTable[decimal.Dec128]) []Q5Row {
	rows := make([]Q5Row, 0)
	if rev != nil && rev.Len() > 0 {
		s.Enter()
		en := q.db.Nations.Enumerate(s)
		for {
			blk, ok := en.NextBlock()
			if !ok {
				break
			}
			q.q5FinishBlock(blk, rev, &rows)
		}
		en.Close()
		s.Exit()
	}
	SortQ5(rows)
	return rows
}

// q5FinishBlock resolves one nation block against the merged revenue
// table: the per-block finishing kernel, shared by the serial pass and
// the block-sharded parallel one (the merged table is read-only here, so
// concurrent probes race with nothing).
func (q *SMCQueries) q5FinishBlock(blk *mem.Block, rev *region.PartitionedTable[decimal.Dec128], out *[]Q5Row) {
	key, name := colOf(blk, q.nKey), colOf(blk, q.nName)
	for i := 0; i < blk.Capacity(); i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		if v := rev.Get(key.i64(i)); v != nil {
			*out = append(*out, Q5Row{Nation: string(name.str(i)), Revenue: *v})
		}
	}
}

// q10Block scans one lineitem block into a Q10 revenue table keyed by
// customer key: the compiled per-block join kernel for the returned-item
// report, shared by the serial and parallel drivers.
func (q *SMCQueries) q10Block(s *core.Session, blk *mem.Block, lo, hi types.Date, rev *region.PartitionedTable[decimal.Dec128]) {
	one := decimal.FromInt64(1)
	ret, ext, disc := colOf(blk, q.lRet), colOf(blk, q.lExt), colOf(blk, q.lDisc)
	ord := colOf(blk, q.frLOrder.Field)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) || ret.i32(i) != 'R' {
			continue
		}
		oobj, err := q.frLOrder.DerefAt(s, ord.at(i))
		if err != nil {
			continue
		}
		od := *(*types.Date)(oobj.Field(q.oDate))
		if od < lo || od >= hi {
			continue
		}
		cobj, err := q.frOCust.Deref(s, oobj)
		if err != nil {
			continue
		}
		r := ext.dec(i).Mul(one.Sub(*disc.dec(i)))
		decimal.AddAssign(rev.At(*(*int64)(cobj.Field(q.cKey))), &r)
	}
}

// q10Finish joins the revenue table back to the customer collection
// (scanning customers is how the group attributes are materialized — the
// group state itself stays pointer-free in the region) and emits the
// ordered rows. Like q5Finish it runs in its own critical section after
// the scan: a customer removed in the gap is not emitted (removed-object
// semantics, §2), where the old single-section serial Q10 would have
// emitted its captured fields — both are valid outcomes of a query
// racing a remove, and on quiesced data the rows are identical.
func (q *SMCQueries) q10Finish(s *core.Session, rev *region.PartitionedTable[decimal.Dec128]) []Q10Row {
	rows := make([]Q10Row, 0)
	if rev != nil && rev.Len() > 0 {
		cut := q10Cutoff(rev)
		s.Enter()
		en := q.db.Customers.Enumerate(s)
		for {
			blk, ok := en.NextBlock()
			if !ok {
				break
			}
			q.q10FinishBlock(s, blk, rev, cut, &rows)
		}
		en.Close()
		s.Exit()
	}
	return SortQ10(rows)
}

// q10Cutoff selects the report's last row before any row exists: the
// q10Limit-th group of the merged revenue table in report order (the
// last group when there are fewer). The finishing pass materializes only
// customers at or before it — late materialization: a qualifying
// customer costs five Go strings and a nation dereference, thousands
// qualify and SortQ10 keeps twenty.
func q10Cutoff(rev *region.PartitionedTable[decimal.Dec128]) q10Entry {
	var top [q10Limit]q10Entry // best first
	n := 0
	rev.Range(func(k int64, v *decimal.Dec128) bool {
		e := q10Entry{key: k, rev: *v}
		i := n
		if n == q10Limit {
			if !e.before(top[n-1]) {
				return true
			}
			i = n - 1
		} else {
			n++
		}
		for ; i > 0 && e.before(top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = e
		return true
	})
	return top[n-1]
}

// q10FinishBlock joins one customer block back to the merged revenue
// table and materializes the output rows at or before cut (q10Cutoff):
// the per-block finishing kernel, shared by the serial pass and the
// block-sharded parallel one. s must be the session whose critical
// section covers blk (the nation dereference needs it).
func (q *SMCQueries) q10FinishBlock(s *core.Session, blk *mem.Block, rev *region.PartitionedTable[decimal.Dec128], cut q10Entry, out *[]Q10Row) {
	key, name, bal := colOf(blk, q.cKey), colOf(blk, q.cName), colOf(blk, q.cBal)
	addr, phone, cmnt := colOf(blk, q.cAddr), colOf(blk, q.cPhone), colOf(blk, q.cCmnt)
	nation := colOf(blk, q.frCNation.Field)
	for i := 0; i < blk.Capacity(); i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		ck := key.i64(i)
		v := rev.Get(ck)
		if v == nil || cut.before(q10Entry{key: ck, rev: *v}) {
			continue
		}
		row := Q10Row{
			CustKey: ck,
			Name:    string(name.str(i)),
			Revenue: *v,
			AcctBal: *bal.dec(i),
			Address: string(addr.str(i)),
			Phone:   string(phone.str(i)),
			Comment: string(cmnt.str(i)),
		}
		if cnobj, err := q.frCNation.DerefAt(s, nation.at(i)); err == nil {
			row.Nation = string(objStr(cnobj, q.nName))
		}
		*out = append(*out, row)
	}
}

// Q3ParCtx is Q3 fanned out over `workers` block-sharded scan workers on
// the pipeline layer: a row-free key-range stage over the admitted
// orders blocks prunes lineitem blocks (query.KeyRanges), then per-worker
// leased arenas, parallel per-partition merge and partition-sharded row
// emission. At one worker it costs what Q3 costs: the key stage is
// O(orders blocks), and the group tables start at joinTableHint and
// grow on demand instead of being sized from the input. Results are
// identical to Q3 on a quiesced collection; under concurrent mutation
// both have the enumerator's bag semantics. The query is admission-gated
// by the runtime's memory budget and cancelable at block-claim
// granularity; budget rejection, cancellation and worker faults surface
// as the error.
func (q *SMCQueries) Q3ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q3Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	segment := []byte(p.Q3Segment)
	// Cross-edge semi-join pruning: the orders blocks the order-date cut
	// admits (the join's build side) give their Key synopsis ranges as a
	// key-set predicate over the lineitem blocks' OrderKey synopses. The
	// stage reads no rows; lineitem blocks whose order-key bounds miss
	// every surviving range are never claimed. The kernel keeps its full
	// residuals, so rows stay byte-identical to the unpruned oracle.
	opred := q.db.Orders.Predicate().DateRange("OrderDate", dateMin, p.Q3Date-1)
	oks, err := query.KeyRanges(pl, query.Where(q.db.Orders, opred), "Key")
	if err != nil {
		return nil, err
	}
	// Pushdown: shipdate > date (the join-side order-date cut stays a
	// residual — it lives on a referenced object, not this scan's block —
	// but the key ranges it admits prune at block granularity).
	pred := q.db.Lineitems.Predicate().
		DateRange("ShipDate", p.Q3Date+1, dateMax).
		InKeySet("OrderKey", oks)
	merged, err := query.Table(pl, query.Where(q.db.Lineitems, pred), joinTableHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[q3Acc]) {
			q.q3Block(ws, blk, p.Q3Date, segment, t)
		}, mergeQ3Acc)
	if err != nil {
		return nil, err
	}
	rows, err := query.PartitionRows(pl, merged, func(pt *region.Table[q3Acc], out *[]Q3Row) {
		pt.Range(func(k int64, a *q3Acc) bool {
			*out = append(*out, q3Row(k, a))
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return SortQ3(rows), nil
}

// Q5ParCtx is Q5 fanned out over `workers` block-sharded scan workers;
// the nation-resolution finishing pass shards over the nation
// collection's blocks with the merged revenue table probed read-only
// (see Q3ParCtx for the contract).
func (q *SMCQueries) Q5ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q5Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	lo, hi := p.Q5Date, p.Q5Date.AddYears(1)
	regionName := []byte(p.Q5Region)
	merged, err := query.Table(pl, q.db.Lineitems, joinTableHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[decimal.Dec128]) {
			q.q5Block(ws, blk, lo, hi, regionName, t)
		}, mergeDec)
	if err != nil {
		return nil, err
	}
	rows := make([]Q5Row, 0)
	if merged != nil && merged.Len() > 0 {
		rows, err = query.Rows(pl, q.db.Nations, func(_ *core.Session, blk *mem.Block, out *[]Q5Row) {
			q.q5FinishBlock(blk, merged, out)
		})
		if err != nil {
			return nil, err
		}
	}
	SortQ5(rows)
	return rows, nil
}

// Q10ParCtx is Q10 fanned out over `workers` block-sharded scan workers
// behind the same row-free key-range stage as Q3ParCtx; the
// customer-resolution finishing pass shards over the customer
// collection's blocks (see Q3ParCtx for the contract).
func (q *SMCQueries) Q10ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q10Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	lo, hi := p.Q10Date, p.Q10Date.AddMonths(3)
	// Cross-edge semi-join pruning, as in Q3ParCtx: the Key ranges of the
	// orders blocks the one-quarter window admits prune lineitem blocks by
	// their OrderKey synopsis bounds.
	opred := q.db.Orders.Predicate().DateRange("OrderDate", lo, hi-1)
	oks, err := query.KeyRanges(pl, query.Where(q.db.Orders, opred), "Key")
	if err != nil {
		return nil, err
	}
	// Pushdown: returnflag == 'R' as a one-point interval (the order-date
	// window is join-side, so it stays residual — but the key ranges it
	// admits prune at block granularity).
	pred := q.db.Lineitems.Predicate().
		Int32Range("ReturnFlag", 'R', 'R').
		InKeySet("OrderKey", oks)
	merged, err := query.Table(pl, query.Where(q.db.Lineitems, pred), joinTableHint,
		func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[decimal.Dec128]) {
			q.q10Block(ws, blk, lo, hi, t)
		}, mergeDec)
	if err != nil {
		return nil, err
	}
	rows := make([]Q10Row, 0)
	if merged != nil && merged.Len() > 0 {
		cut := q10Cutoff(merged)
		rows, err = query.Rows(pl, q.db.Customers, func(ws *core.Session, blk *mem.Block, out *[]Q10Row) {
			q.q10FinishBlock(ws, blk, merged, cut, out)
		})
		if err != nil {
			return nil, err
		}
	}
	return SortQ10(rows), nil
}
