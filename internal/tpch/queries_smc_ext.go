package tpch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/region"
)

// Compiled "unsafe" Q7–Q10 over self-managed collections: the same
// generated-code idioms as queries_smc.go — per-block slot-directory
// scans, hoisted field handles, in-place decimal arithmetic on pointers
// into block memory, and reference joins through the open-coded deref
// fast path. These queries chain three to four dereferences per driving
// row, which is the §6 workload where direct pointers pay off.

// Q7 — volume shipping between two nations, grouped by direction and
// ship year. The revenue accumulators live in a leased region keyed by
// the packed direction+year (pointer-free, §7). The per-block kernel is
// shared with Q7ParCtx (queries_smc_joins_ext.go).
func (q *SMCQueries) Q7(s *core.Session, p Params) []Q7Row {
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	rev := region.NewPartitionedTable[decimal.Dec128](a, 1, extTableHint)
	nation1 := []byte(p.Q7Nation1)
	nation2 := []byte(p.Q7Nation2)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q7Block(s, blk, nation1, nation2, rev)
	}
	en.Close()
	s.Exit()

	rows := make([]Q7Row, 0, rev.Len())
	rev.Range(func(k int64, v *decimal.Dec128) bool {
		rows = append(rows, q7Row(p, k, *v))
		return true
	})
	SortQ7(rows)
	return rows
}

// Q8 — national market share: per order year, the fraction of volume
// supplied by one nation into one region for one part type. The per-year
// volume sums live in a leased region keyed by order year (§7). The
// per-block kernel is shared with Q8ParCtx (queries_smc_joins_ext.go).
func (q *SMCQueries) Q8(s *core.Session, p Params) []Q8Row {
	a := q.arenas.Lease()
	defer q.arenas.Return(a)
	groups := region.NewPartitionedTable[q8Acc](a, 1, extTableHint)
	nation := []byte(p.Q8Nation)
	regionName := []byte(p.Q8Region)
	ptype := []byte(p.Q8Type)

	s.Enter()
	en := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q8Block(s, blk, nation, regionName, ptype, groups)
	}
	en.Close()
	s.Exit()

	rows := make([]Q8Row, 0, groups.Len())
	groups.Range(func(k int64, acc *q8Acc) bool {
		rows = append(rows, q8Row(k, acc))
		return true
	})
	SortQ8(rows)
	return rows
}

// packPSKey packs a (partkey, suppkey) pair into one 64-bit region-table
// key. Supplier keys stay below 2^24 for every realistic scale factor
// (SF 1600 would be needed to overflow); the pack asserts it.
func packPSKey(part, supp int64) int64 {
	if uint64(supp) >= 1<<24 {
		panic(fmt.Sprintf("tpch: supplier key %d overflows packed partsupp key", supp))
	}
	return part<<24 | supp
}

// Q9 — product-type profit: reference joins for part/supplier/order plus
// a value join against the PARTSUPP cost table, built by enumerating the
// partsupp collection's blocks into a region-backed hash table (§7's
// region intermediates). Both the cost table and the profit table —
// keyed by the packed (supplier nation, order year) — live in a leased
// region; nation names resolve in a finishing pass over the tiny nation
// collection. The per-block kernels are shared with Q9ParCtx
// (queries_smc_joins_ext.go), whose first pipeline stage fans this very
// cost-table build out over workers.
func (q *SMCQueries) Q9(s *core.Session, p Params) []Q9Row {
	color := []byte(p.Q9Color)
	ar := q.arenas.Lease()
	defer q.arenas.Return(ar)
	cost := region.NewPartitionedTable[decimal.Dec128](ar, 1, q9CostHint)
	profit := region.NewPartitionedTable[decimal.Dec128](ar, 1, q9ProfitHint)

	s.Enter()
	en := q.db.PartSupps.Enumerate(s)
	for {
		blk, ok := en.NextBlock()
		if !ok {
			break
		}
		q.q9CostBlock(s, blk, cost)
	}
	en.Close()

	en2 := q.db.Lineitems.Enumerate(s)
	for {
		blk, ok := en2.NextBlock()
		if !ok {
			break
		}
		q.q9Block(s, blk, color, cost, profit)
	}
	en2.Close()
	s.Exit()

	rows := make([]Q9Row, 0, profit.Len())
	if profit.Len() > 0 {
		names := q.nationNames(s)
		profit.Range(func(k int64, v *decimal.Dec128) bool {
			rows = append(rows, q9Row(names, k, *v))
			return true
		})
	}
	SortQ9(rows)
	return rows
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

// AllX runs Q7–Q10.
func (q *SMCQueries) AllX(s *core.Session, p Params) *ResultX {
	return &ResultX{
		Q7:  q.Q7(s, p),
		Q8:  q.Q8(s, p),
		Q9:  q.Q9(s, p),
		Q10: q.Q10(s, p),
	}
}
