package tpch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/decimal"
	"repro/internal/types"
)

// Params carries the substitution parameters of queries Q1–Q6 and Q10,
// defaulted to the TPC-H validation values.
type Params struct {
	// Q1: shipdate <= 1998-12-01 - Delta days.
	Q1Delta int
	// Q2: part size, type suffix, region name.
	Q2Size   int32
	Q2Type   string
	Q2Region string
	// Q3: market segment and date.
	Q3Segment string
	Q3Date    types.Date
	// Q4: quarter start.
	Q4Date types.Date
	// Q5: region and year start.
	Q5Region string
	Q5Date   types.Date
	// Q6: year start, discount center, quantity bound.
	Q6Date     types.Date
	Q6Discount decimal.Dec128
	Q6Quantity decimal.Dec128
	// Q10: quarter start for the returned-item report.
	Q10Date types.Date
}

// DefaultParams returns the TPC-H validation parameters.
func DefaultParams() Params {
	return Params{
		Q1Delta:    90,
		Q2Size:     15,
		Q2Type:     "BRASS",
		Q2Region:   "EUROPE",
		Q3Segment:  "BUILDING",
		Q3Date:     types.MustDate("1995-03-15"),
		Q4Date:     types.MustDate("1993-07-01"),
		Q5Region:   "ASIA",
		Q5Date:     types.MustDate("1994-01-01"),
		Q6Date:     types.MustDate("1994-01-01"),
		Q6Discount: decimal.MustParse("0.06"),
		Q6Quantity: decimal.FromInt64(24),
		Q10Date:    types.MustDate("1993-10-01"),
	}
}

// Q1Cutoff computes the Q1 shipdate cutoff.
func (p Params) Q1Cutoff() types.Date {
	return types.MustDate("1998-12-01").AddDays(-p.Q1Delta)
}

// Q1Row is one group of the pricing summary report.
type Q1Row struct {
	ReturnFlag int32
	LineStatus int32
	SumQty     decimal.Dec128
	SumBase    decimal.Dec128
	SumDisc    decimal.Dec128
	SumCharge  decimal.Dec128
	AvgQty     decimal.Dec128
	AvgPrice   decimal.Dec128
	AvgDisc    decimal.Dec128
	Count      int64
}

// SortQ1 orders rows by (returnflag, linestatus).
func SortQ1(rows []Q1Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ReturnFlag != rows[j].ReturnFlag {
			return rows[i].ReturnFlag < rows[j].ReturnFlag
		}
		return rows[i].LineStatus < rows[j].LineStatus
	})
}

// q1Key packs the two grouping chars.
func q1Key(rf, ls int32) int64 { return int64(rf)<<8 | int64(ls) }

// q1Acc is the shared accumulator for Q1 implementations.
type q1Acc struct {
	sumQty, sumBase, sumDisc, sumCharge decimal.Dec128
	count                               int64
}

func q1Finish(groups map[int64]*q1Acc) []Q1Row {
	rows := make([]Q1Row, 0, len(groups))
	for k, a := range groups {
		rows = append(rows, Q1Row{
			ReturnFlag: int32(k >> 8),
			LineStatus: int32(k & 0xff),
			SumQty:     a.sumQty,
			SumBase:    a.sumBase,
			SumDisc:    a.sumDisc,
			SumCharge:  a.sumCharge,
			AvgQty:     a.sumQty.DivInt64(a.count),
			AvgPrice:   a.sumBase.DivInt64(a.count),
			AvgDisc:    a.sumDisc.DivInt64(a.count),
			Count:      a.count,
		})
	}
	SortQ1(rows)
	return rows
}

// Q2Row is one row of the minimum-cost supplier query.
type Q2Row struct {
	AcctBal decimal.Dec128
	SName   string
	NName   string
	PartKey int64
	Mfgr    string
	Address string
	Phone   string
	Comment string
}

// SortQ2 orders by (acctbal desc, nation, supplier, partkey) and caps at
// 100 rows.
func SortQ2(rows []Q2Row) []Q2Row {
	sort.Slice(rows, func(i, j int) bool {
		if c := rows[i].AcctBal.Cmp(rows[j].AcctBal); c != 0 {
			return c > 0
		}
		if rows[i].NName != rows[j].NName {
			return rows[i].NName < rows[j].NName
		}
		if rows[i].SName != rows[j].SName {
			return rows[i].SName < rows[j].SName
		}
		return rows[i].PartKey < rows[j].PartKey
	})
	if len(rows) > 100 {
		rows = rows[:100]
	}
	return rows
}

// Q3Row is one row of the shipping-priority query.
type Q3Row struct {
	OrderKey     int64
	Revenue      decimal.Dec128
	OrderDate    types.Date
	ShipPriority int32
}

// SortQ3 orders by (revenue desc, orderdate) and caps at 10 rows.
func SortQ3(rows []Q3Row) []Q3Row {
	sort.Slice(rows, func(i, j int) bool {
		if c := rows[i].Revenue.Cmp(rows[j].Revenue); c != 0 {
			return c > 0
		}
		if rows[i].OrderDate != rows[j].OrderDate {
			return rows[i].OrderDate < rows[j].OrderDate
		}
		return rows[i].OrderKey < rows[j].OrderKey
	})
	if len(rows) > 10 {
		rows = rows[:10]
	}
	return rows
}

// Q4Row is one row of the order-priority checking query.
type Q4Row struct {
	Priority string
	Count    int64
}

// SortQ4 orders by priority.
func SortQ4(rows []Q4Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Priority < rows[j].Priority })
}

// Q5Row is one row of the local-supplier-volume query.
type Q5Row struct {
	Nation  string
	Revenue decimal.Dec128
}

// SortQ5 orders by revenue descending.
func SortQ5(rows []Q5Row) {
	sort.Slice(rows, func(i, j int) bool {
		if c := rows[i].Revenue.Cmp(rows[j].Revenue); c != 0 {
			return c > 0
		}
		return rows[i].Nation < rows[j].Nation
	})
}

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

// Result bundles all six query outputs for cross-engine comparison.
type Result struct {
	Q1 []Q1Row
	Q2 []Q2Row
	Q3 []Q3Row
	Q4 []Q4Row
	Q5 []Q5Row
	Q6 decimal.Dec128
}

// Equal compares two result sets exactly.
func (r *Result) Equal(o *Result) bool { return r.Diff(o) == "" }

// Diff describes the first difference between two result sets, or "".
func (r *Result) Diff(o *Result) string {
	if len(r.Q1) != len(o.Q1) {
		return fmt.Sprintf("Q1 rows: %d vs %d", len(r.Q1), len(o.Q1))
	}
	for i := range r.Q1 {
		if r.Q1[i] != o.Q1[i] {
			return fmt.Sprintf("Q1[%d]: %+v vs %+v", i, r.Q1[i], o.Q1[i])
		}
	}
	if len(r.Q2) != len(o.Q2) {
		return fmt.Sprintf("Q2 rows: %d vs %d", len(r.Q2), len(o.Q2))
	}
	for i := range r.Q2 {
		if r.Q2[i] != o.Q2[i] {
			return fmt.Sprintf("Q2[%d]: %+v vs %+v", i, r.Q2[i], o.Q2[i])
		}
	}
	if len(r.Q3) != len(o.Q3) {
		return fmt.Sprintf("Q3 rows: %d vs %d", len(r.Q3), len(o.Q3))
	}
	for i := range r.Q3 {
		if r.Q3[i] != o.Q3[i] {
			return fmt.Sprintf("Q3[%d]: %+v vs %+v", i, r.Q3[i], o.Q3[i])
		}
	}
	if len(r.Q4) != len(o.Q4) {
		return fmt.Sprintf("Q4 rows: %d vs %d", len(r.Q4), len(o.Q4))
	}
	for i := range r.Q4 {
		if r.Q4[i] != o.Q4[i] {
			return fmt.Sprintf("Q4[%d]: %+v vs %+v", i, r.Q4[i], o.Q4[i])
		}
	}
	if len(r.Q5) != len(o.Q5) {
		return fmt.Sprintf("Q5 rows: %d vs %d", len(r.Q5), len(o.Q5))
	}
	for i := range r.Q5 {
		if r.Q5[i] != o.Q5[i] {
			return fmt.Sprintf("Q5[%d]: %+v vs %+v", i, r.Q5[i], o.Q5[i])
		}
	}
	if r.Q6 != o.Q6 {
		return fmt.Sprintf("Q6: %v vs %v", r.Q6, o.Q6)
	}
	return ""
}

// hasSuffix reports whether s ends with suffix (Q2's "type like %BRASS").
func hasSuffix(s, suffix string) bool { return strings.HasSuffix(s, suffix) }
