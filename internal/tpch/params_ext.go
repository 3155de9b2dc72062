package tpch

import (
	"fmt"
	"sort"

	"repro/internal/decimal"
	"repro/internal/types"
)

// Extended query set: TPC-H Q7–Q10, beyond the paper's Q1–Q6 evaluation.
// These are the join-heaviest queries of the benchmark's first half and
// stress exactly the mechanism §6 motivates — chains of reference
// dereferences through several collections — so they make good extension
// workloads for the direct-pointer and columnar layouts. Every engine
// (managed List, ConcurrentDictionary, LINQ, SMC safe/unsafe in all
// layouts, column store) implements them; results are compared exactly.

// Q7 date window: l_shipdate in [1995-01-01, 1996-12-31].
var (
	q7DateLo = types.MustDate("1995-01-01")
	q7DateHi = types.MustDate("1996-12-31")
)

// Q7Row is one row of the volume-shipping query: revenue shipped between
// the two nations per direction and year.
type Q7Row struct {
	SuppNation string
	CustNation string
	Year       int32
	Revenue    decimal.Dec128
}

// SortQ7 orders by (supp_nation, cust_nation, year).
func SortQ7(rows []Q7Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SuppNation != rows[j].SuppNation {
			return rows[i].SuppNation < rows[j].SuppNation
		}
		if rows[i].CustNation != rows[j].CustNation {
			return rows[i].CustNation < rows[j].CustNation
		}
		return rows[i].Year < rows[j].Year
	})
}

// Q8Row is one row of the national-market-share query.
type Q8Row struct {
	Year     int32
	MktShare decimal.Dec128
}

// SortQ8 orders by year.
func SortQ8(rows []Q8Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Year < rows[j].Year })
}

// q8Acc accumulates the per-year volume sums Q8 divides.
type q8Acc struct {
	nation, total decimal.Dec128
}

func q8Finish(groups map[int32]*q8Acc) []Q8Row {
	rows := make([]Q8Row, 0, len(groups))
	for y, a := range groups {
		share := decimal.Zero
		if !a.total.IsZero() {
			share = a.nation.Div(a.total)
		}
		rows = append(rows, Q8Row{Year: y, MktShare: share})
	}
	SortQ8(rows)
	return rows
}

// Q9Row is one row of the product-type-profit query.
type Q9Row struct {
	Nation    string
	Year      int32
	SumProfit decimal.Dec128
}

// SortQ9 orders by (nation asc, year desc).
func SortQ9(rows []Q9Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nation != rows[j].Nation {
			return rows[i].Nation < rows[j].Nation
		}
		return rows[i].Year > rows[j].Year
	})
}

// psKey identifies one PARTSUPP row; Q9's cost lookup joins on it.
type psKey struct{ Part, Supp int64 }

// Q10Row is one row of the returned-item report.
type Q10Row struct {
	CustKey int64
	Name    string
	Revenue decimal.Dec128
	AcctBal decimal.Dec128
	Nation  string
	Address string
	Phone   string
	Comment string
}

// q10Limit is the returned-item report's row cap.
const q10Limit = 20

// q10Entry is one customer group of the report: what its order needs.
type q10Entry struct {
	key int64
	rev decimal.Dec128
}

// before is the report's order: revenue descending, custkey ascending
// on ties.
func (a q10Entry) before(b q10Entry) bool {
	if c := a.rev.Cmp(b.rev); c != 0 {
		return c > 0
	}
	return a.key < b.key
}

// SortQ10 orders by revenue descending (custkey ascending on ties) and
// caps at 20 rows.
func SortQ10(rows []Q10Row) []Q10Row {
	sort.Slice(rows, func(i, j int) bool {
		return q10Entry{rows[i].CustKey, rows[i].Revenue}.before(q10Entry{rows[j].CustKey, rows[j].Revenue})
	})
	if len(rows) > q10Limit {
		rows = rows[:q10Limit]
	}
	return rows
}

// ResultX bundles the extended-query outputs for cross-engine comparison.
type ResultX struct {
	Q7  []Q7Row
	Q8  []Q8Row
	Q9  []Q9Row
	Q10 []Q10Row
}

// Equal compares two extended result sets exactly.
func (r *ResultX) Equal(o *ResultX) bool { return r.Diff(o) == "" }

// Diff describes the first difference between two extended result sets,
// or "".
func (r *ResultX) Diff(o *ResultX) string {
	if len(r.Q7) != len(o.Q7) {
		return fmt.Sprintf("Q7 rows: %d vs %d", len(r.Q7), len(o.Q7))
	}
	for i := range r.Q7 {
		if r.Q7[i] != o.Q7[i] {
			return fmt.Sprintf("Q7[%d]: %+v vs %+v", i, r.Q7[i], o.Q7[i])
		}
	}
	if len(r.Q8) != len(o.Q8) {
		return fmt.Sprintf("Q8 rows: %d vs %d", len(r.Q8), len(o.Q8))
	}
	for i := range r.Q8 {
		if r.Q8[i] != o.Q8[i] {
			return fmt.Sprintf("Q8[%d]: %+v vs %+v", i, r.Q8[i], o.Q8[i])
		}
	}
	if len(r.Q9) != len(o.Q9) {
		return fmt.Sprintf("Q9 rows: %d vs %d", len(r.Q9), len(o.Q9))
	}
	for i := range r.Q9 {
		if r.Q9[i] != o.Q9[i] {
			return fmt.Sprintf("Q9[%d]: %+v vs %+v", i, r.Q9[i], o.Q9[i])
		}
	}
	if len(r.Q10) != len(o.Q10) {
		return fmt.Sprintf("Q10 rows: %d vs %d", len(r.Q10), len(o.Q10))
	}
	for i := range r.Q10 {
		if r.Q10[i] != o.Q10[i] {
			return fmt.Sprintf("Q10[%d]: %+v vs %+v", i, r.Q10[i], o.Q10[i])
		}
	}
	return ""
}
