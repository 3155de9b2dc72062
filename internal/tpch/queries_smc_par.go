package tpch

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/query"
	"repro/internal/types"
)

// Date extremes for one-sided pushdown intervals (synopsis bounds are
// inclusive on both ends).
const (
	dateMin = types.Date(math.MinInt32)
	dateMax = types.Date(math.MaxInt32)
)

// decKeyMin is the most negative decimal the synopsis key space can
// name; it encodes one-sided decimal intervals.
var decKeyMin = decimal.Dec128{Lo: 0, Hi: math.MinInt64}

// oneUnit is the smallest positive decimal step (1e-4): v < x over the
// fixed-point domain is exactly v <= x - oneUnit, which turns strict
// upper bounds into the inclusive intervals synopses prune on.
var oneUnit = decimal.FromUnits(1)

// Parallel compiled queries: the scan-dominated kernels (Q1, Q6) fanned
// out over the pipeline layer's Accum stage by their *ParCtx drivers. Each worker folds into its
// own accumulator set (cache-line padded against false sharing) and the
// partials merge in worker order after the scan — the paper's per-thread
// generated query state, one per worker instead of one per stream. The
// per-block kernels are shared with the serial Q1/Q6, so serial and
// parallel execute byte-identical inner loops.

// q1Dense is the dense (returnflag, linestatus) accumulator table of the
// compiled Q1 kernel: the query compiler knows both grouping attributes
// are single chars, so four slots cover TPC-H's domain.
type q1Dense struct {
	accs [4]struct {
		q1Acc
		used bool
	}
	_ [64]byte // pad: adjacent workers' tables must not share a line
}

// q1DenseIdx maps the (returnflag, linestatus) domain onto table slots.
func q1DenseIdx(rf, ls int32) int {
	switch {
	case rf == 'A':
		return 0
	case rf == 'N' && ls == 'F':
		return 1
	case rf == 'N':
		return 2
	default:
		return 3 // 'R'
	}
}

// groups converts the dense table into the shared q1Acc map keyed like
// every other Q1 implementation, for q1Finish.
func (d *q1Dense) groups() map[int64]*q1Acc {
	groups := make(map[int64]*q1Acc, 4)
	for i := range d.accs {
		if !d.accs[i].used {
			continue
		}
		var rf, ls int32
		switch i {
		case 0:
			rf, ls = 'A', 'F'
		case 1:
			rf, ls = 'N', 'F'
		case 2:
			rf, ls = 'N', 'O'
		default:
			rf, ls = 'R', 'F'
		}
		a := d.accs[i].q1Acc
		groups[q1Key(rf, ls)] = &a
	}
	return groups
}

// mergeFrom folds another worker's partial table into d.
func (d *q1Dense) mergeFrom(o *q1Dense) {
	for i := range d.accs {
		if !o.accs[i].used {
			continue
		}
		a, b := &d.accs[i], &o.accs[i]
		a.used = true
		decimal.AddAssign(&a.sumQty, &b.sumQty)
		decimal.AddAssign(&a.sumBase, &b.sumBase)
		decimal.AddAssign(&a.sumDisc, &b.sumDisc)
		decimal.AddAssign(&a.sumCharge, &b.sumCharge)
		a.count += b.count
	}
}

// q1Block scans one block into a dense accumulator table: the compiled
// per-block Q1 kernel, shared by the serial and parallel drivers.
func (q *SMCQueries) q1Block(blk *mem.Block, cutoff types.Date, d *q1Dense) {
	one := decimal.FromInt64(1)
	ship, ret, stat := colOf(blk, q.lShip), colOf(blk, q.lRet), colOf(blk, q.lStat)
	qty, ext, disc, tax := colOf(blk, q.lQty), colOf(blk, q.lExt), colOf(blk, q.lDisc), colOf(blk, q.lTax)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) || ship.date(i) > cutoff {
			continue
		}
		a := &d.accs[q1DenseIdx(ret.i32(i), stat.i32(i))]
		a.used = true
		e, dsc := ext.dec(i), disc.dec(i)
		decimal.AddAssign(&a.sumQty, qty.dec(i))
		decimal.AddAssign(&a.sumBase, e)
		decimal.AddAssign(&a.sumDisc, dsc)
		price := e.Mul(one.Sub(*dsc))
		charge := price.Mul(one.Add(*tax.dec(i)))
		decimal.AddAssign(&a.sumCharge, &charge)
		a.count++
	}
}

// q6Sum is one worker's Q6 partial, padded against false sharing.
type q6Sum struct {
	sum decimal.Dec128
	_   [48]byte
}

// q6Block scans one block into a partial revenue sum: the compiled
// per-block Q6 kernel, shared by the serial and parallel drivers.
func (q *SMCQueries) q6Block(blk *mem.Block, p Params, hi types.Date, lo, hiD decimal.Dec128, out *q6Sum) {
	ship, qty, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lQty), colOf(blk, q.lExt), colOf(blk, q.lDisc)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		if d := ship.date(i); d < p.Q6Date || d >= hi {
			continue
		}
		dsc := disc.dec(i)
		if dsc.Less(lo) || hiD.Less(*dsc) || !qty.dec(i).Less(p.Q6Quantity) {
			continue
		}
		decimal.MulAdd(&out.sum, ext.dec(i), dsc)
	}
}

// q6WindowBlock sums revenue (extendedprice × discount) over ship dates
// in [lo, hi]: the Q6-style windowed scan kernel behind Q6WindowParCtx
// and the served q6window endpoint, whose window is the whole predicate,
// so its selectivity is purely date-driven.
func (q *SMCQueries) q6WindowBlock(blk *mem.Block, lo, hi types.Date, out *q6Sum) {
	ship, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lExt), colOf(blk, q.lDisc)
	n := blk.Capacity()
	for i := 0; i < n; i++ {
		if !blk.SlotIsValid(i) {
			continue
		}
		if d := ship.date(i); d < lo || d > hi {
			continue
		}
		decimal.MulAdd(&out.sum, ext.dec(i), disc.dec(i))
	}
}

// Q6WindowPar is Q6WindowParCtx under context.Background, falling back to
// a serial unpruned scan when the pipeline fails. The name and the
// fallback survive only because benchmark/ (workloads.go) calls it as its
// q6window oracle; every other caller uses Q6WindowParCtx and handles the
// error. It goes with Q6WindowSharedCtx in a benchmark-archetype change.
func (q *SMCQueries) Q6WindowPar(s *core.Session, lo, hi types.Date, workers int, pushdown bool) decimal.Dec128 {
	sum, err := q.Q6WindowParCtx(context.Background(), s, lo, hi, workers, pushdown)
	if err != nil {
		// Worker sessions unavailable: degrade to a serial unpruned scan.
		var acc q6Sum
		s.Enter()
		en := q.db.Lineitems.Enumerate(s)
		for {
			blk, ok := en.NextBlock()
			if !ok {
				break
			}
			q.q6WindowBlock(blk, lo, hi, &acc)
		}
		en.Close()
		s.Exit()
		return acc.sum
	}
	return sum
}

// Q6WindowParCtx is the Q6-style windowed revenue scan behind the served
// q6window endpoint: sum(extendedprice × discount) over ship dates in
// [lo, hi], fanned out over `workers`, with the window optionally pushed
// down onto the lineitem block synopses. The kernel's
// residual window check runs either way, so pushdown can only skip
// provably-empty blocks, never change the sum. The scan is
// admission-gated by the memory budget and cancelable at block-claim
// granularity — a canceled scan returns within one block's work plus
// worker unwind, with every pooled session returned and every leased
// arena back in the pool after Close. Cancellation, budget rejection and
// worker faults surface as the error.
func (q *SMCQueries) Q6WindowParCtx(ctx context.Context, s *core.Session, lo, hi types.Date, workers int, pushdown bool) (decimal.Dec128, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return decimal.Dec128{}, err
	}
	defer pl.Close()
	src := query.Source(q.db.Lineitems)
	if pushdown {
		src = query.Where(q.db.Lineitems, q.db.Lineitems.Predicate().DateRange("ShipDate", lo, hi))
	}
	out, err := query.Accum(pl, src,
		func(_ int, _ *core.Session, blk *mem.Block, acc *q6Sum) {
			q.q6WindowBlock(blk, lo, hi, acc)
		},
		func(dst, src *q6Sum) { decimal.AddAssign(&dst.sum, &src.sum) })
	if err != nil {
		return decimal.Dec128{}, err
	}
	return out.sum, nil
}

// Q6WindowSharedCtx forwards to Q6WindowParCtx. Cooperative scan sharing
// was deleted; the name survives only because benchmark/ (workloads.go,
// trace.go) still calls it, and goes when a benchmark-archetype PR
// retires the mem.share_* metrics.
func (q *SMCQueries) Q6WindowSharedCtx(ctx context.Context, s *core.Session, lo, hi types.Date, workers int, pushdown bool) (decimal.Dec128, error) {
	return q.Q6WindowParCtx(ctx, s, lo, hi, workers, pushdown)
}

// Q1ParCtx is Q1 fanned out over `workers` block-sharded scan workers on
// the query pipeline. Results are identical to Q1 on a quiesced
// collection; under concurrent mutation both have the enumerator's bag
// semantics. Like every *ParCtx driver it is admission-gated by the
// runtime's memory budget and cancelable at block-claim granularity, and
// budget rejection, cancellation and worker faults surface as the error:
// Q1 is the independent oracle, never a fallback.
func (q *SMCQueries) Q1ParCtx(ctx context.Context, s *core.Session, p Params, workers int) ([]Q1Row, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	cutoff := p.Q1Cutoff()
	// Pushdown: shipdate <= cutoff. The kernel keeps its per-row check —
	// pruning only drops blocks whose entire date range is past the cut.
	pred := q.db.Lineitems.Predicate().DateRange("ShipDate", dateMin, cutoff)
	total, err := query.Accum(pl, query.Where(q.db.Lineitems, pred),
		func(_ int, _ *core.Session, blk *mem.Block, acc *q1Dense) {
			q.q1Block(blk, cutoff, acc)
		},
		func(dst, src *q1Dense) { dst.mergeFrom(src) })
	if err != nil {
		return nil, err
	}
	return q1Finish(total.groups()), nil
}

// Q6ParCtx is Q6 fanned out over `workers` block-sharded scan workers
// (see Q1ParCtx for the contract).
func (q *SMCQueries) Q6ParCtx(ctx context.Context, s *core.Session, p Params, workers int) (decimal.Dec128, error) {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return decimal.Dec128{}, err
	}
	defer pl.Close()
	hi := p.Q6Date.AddYears(1)
	lo := p.Q6Discount.Sub(decimal.MustParse("0.01"))
	hiD := p.Q6Discount.Add(decimal.MustParse("0.01"))
	// Pushdown: the full Q6 interval conjunction — shipdate in [lo, hi),
	// discount in [lo, hiD], quantity < max (strict bounds become
	// inclusive by stepping one date/decimal unit).
	pred := q.db.Lineitems.Predicate().
		DateRange("ShipDate", p.Q6Date, hi-1).
		DecimalRange("Discount", lo, hiD).
		DecimalRange("Quantity", decKeyMin, p.Q6Quantity.Sub(oneUnit))
	out, err := query.Accum(pl, query.Where(q.db.Lineitems, pred),
		func(_ int, _ *core.Session, blk *mem.Block, acc *q6Sum) {
			q.q6Block(blk, p, hi, lo, hiD, acc)
		},
		func(dst, src *q6Sum) { decimal.AddAssign(&dst.sum, &src.sum) })
	if err != nil {
		return decimal.Dec128{}, err
	}
	return out.sum, nil
}

// Q6WindowHit is one qualifying lineitem of a windowed revenue scan:
// the streaming row shape the serve layer's chunked-row endpoint emits.
type Q6WindowHit struct {
	OrderKey int64          `json:"order_key"`
	ShipDate types.Date     `json:"ship_date"`
	Revenue  decimal.Dec128 `json:"revenue"`
}

// Q6WindowRowsCtx streams the individual qualifying rows of a Q6-style
// windowed revenue scan (ship date in [lo, hi]) through sink as blocks
// finish, via query.RowsUnordered: per-worker row batches are handed
// over as soon as their block completes, in no deterministic order, and
// the batch slice is reused for the worker's next block — consume or
// copy inside the call. The revenue of every streamed hit sums (in any
// order; decimal addition is exact) to exactly Q6WindowParCtx's result
// over the same window, which is how the serve tests and the CI smoke
// pin the chunked response to the serial oracle. A sink error or ctx
// cancellation stops the scan within one block's work per worker.
func (q *SMCQueries) Q6WindowRowsCtx(ctx context.Context, s *core.Session, lo, hi types.Date, workers int, pushdown bool, sink func(rows []Q6WindowHit) error) error {
	pl, err := query.NewCtx(ctx, s, q.arenas, workers)
	if err != nil {
		return err
	}
	defer pl.Close()
	src := query.Source(q.db.Lineitems)
	if pushdown {
		src = query.Where(q.db.Lineitems, q.db.Lineitems.Predicate().DateRange("ShipDate", lo, hi))
	}
	return query.RowsUnordered(pl, src,
		func(_ *core.Session, blk *mem.Block, out *[]Q6WindowHit) {
			ship, ext, disc := colOf(blk, q.lShip), colOf(blk, q.lExt), colOf(blk, q.lDisc)
			key := colOf(blk, q.lOrderKey)
			n := blk.Capacity()
			for i := 0; i < n; i++ {
				if !blk.SlotIsValid(i) {
					continue
				}
				d := ship.date(i)
				if d < lo || d > hi {
					continue
				}
				var rev decimal.Dec128
				decimal.MulAdd(&rev, ext.dec(i), disc.dec(i))
				*out = append(*out, Q6WindowHit{OrderKey: key.i64(i), ShipDate: d, Revenue: rev})
			}
		},
		sink)
}
