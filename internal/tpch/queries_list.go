package tpch

import (
	"repro/internal/decimal"
	"repro/internal/types"
)

// Compiled queries over the managed List representation. These loops are
// the Go equivalent of the paper's compiled C# query code over managed
// collections ([13]-style generated imperative code with reference-based
// joins): tight loops, no iterator dispatch, but every object access
// chases a heap pointer.

// ListQ1 runs the pricing summary report over the managed lists.
func ListQ1(db *ManagedDB, p Params) []Q1Row {
	cutoff := p.Q1Cutoff()
	groups := make(map[int64]*q1Acc, 8)
	one := decimal.FromInt64(1)
	for _, l := range db.Lineitems.Items() {
		if l.ShipDate > cutoff {
			continue
		}
		k := q1Key(l.ReturnFlag, l.LineStatus)
		a := groups[k]
		if a == nil {
			a = &q1Acc{}
			groups[k] = a
		}
		a.sumQty = a.sumQty.Add(l.Quantity)
		a.sumBase = a.sumBase.Add(l.ExtendedPrice)
		a.sumDisc = a.sumDisc.Add(l.Discount)
		disc := l.ExtendedPrice.Mul(one.Sub(l.Discount))
		a.sumCharge = a.sumCharge.Add(disc.Mul(one.Add(l.Tax)))
		a.count++
	}
	return q1Finish(groups)
}

// ListQ2 runs the minimum-cost supplier query.
func ListQ2(db *ManagedDB, p Params) []Q2Row {
	// For qualifying parts, find the minimum supply cost among suppliers
	// in the region, then emit the suppliers matching that minimum.
	minCost := make(map[int64]decimal.Dec128)
	for _, ps := range db.PartSupps.Items() {
		pt := ps.Part
		if pt.Size != p.Q2Size || !hasSuffix(pt.Type, p.Q2Type) {
			continue
		}
		if ps.Supplier.Nation.Region.Name != p.Q2Region {
			continue
		}
		cur, ok := minCost[pt.Key]
		if !ok || ps.SupplyCost.Less(cur) {
			minCost[pt.Key] = ps.SupplyCost
		}
	}
	var rows []Q2Row
	for _, ps := range db.PartSupps.Items() {
		pt := ps.Part
		mc, ok := minCost[pt.Key]
		if !ok || ps.SupplyCost != mc {
			continue
		}
		s := ps.Supplier
		if s.Nation.Region.Name != p.Q2Region {
			continue
		}
		if pt.Size != p.Q2Size || !hasSuffix(pt.Type, p.Q2Type) {
			continue
		}
		rows = append(rows, Q2Row{
			AcctBal: s.AcctBal, SName: s.Name, NName: s.Nation.Name,
			PartKey: pt.Key, Mfgr: pt.Mfgr, Address: s.Address,
			Phone: s.Phone, Comment: s.Comment,
		})
	}
	return SortQ2(rows)
}

// ListQ3 runs the shipping-priority query via reference joins.
func ListQ3(db *ManagedDB, p Params) []Q3Row {
	type acc struct {
		rev   decimal.Dec128
		date  types.Date
		sprio int32
	}
	groups := make(map[int64]*acc)
	one := decimal.FromInt64(1)
	for _, l := range db.Lineitems.Items() {
		if l.ShipDate <= p.Q3Date {
			continue
		}
		o := l.Order
		if o.OrderDate >= p.Q3Date || o.Customer.MktSegment != p.Q3Segment {
			continue
		}
		a := groups[o.Key]
		if a == nil {
			a = &acc{date: o.OrderDate, sprio: o.ShipPriority}
			groups[o.Key] = a
		}
		a.rev = a.rev.Add(l.ExtendedPrice.Mul(one.Sub(l.Discount)))
	}
	rows := make([]Q3Row, 0, len(groups))
	for k, a := range groups {
		rows = append(rows, Q3Row{OrderKey: k, Revenue: a.rev, OrderDate: a.date, ShipPriority: a.sprio})
	}
	return SortQ3(rows)
}

// ListQ4 runs the order-priority checking query (semi-join on orderkey).
func ListQ4(db *ManagedDB, p Params) []Q4Row {
	hi := p.Q4Date.AddMonths(3)
	late := make(map[int64]bool)
	for _, l := range db.Lineitems.Items() {
		if l.CommitDate < l.ReceiptDate {
			o := l.Order
			if o.OrderDate >= p.Q4Date && o.OrderDate < hi {
				late[o.Key] = true
			}
		}
	}
	counts := make(map[string]int64)
	for _, o := range db.Orders.Items() {
		if o.OrderDate >= p.Q4Date && o.OrderDate < hi && late[o.Key] {
			counts[o.OrderPriority]++
		}
	}
	rows := make([]Q4Row, 0, len(counts))
	for pr, n := range counts {
		rows = append(rows, Q4Row{Priority: pr, Count: n})
	}
	SortQ4(rows)
	return rows
}

// ListQ5 runs the local-supplier-volume query via reference joins.
func ListQ5(db *ManagedDB, p Params) []Q5Row {
	hi := p.Q5Date.AddYears(1)
	rev := make(map[string]decimal.Dec128)
	one := decimal.FromInt64(1)
	for _, l := range db.Lineitems.Items() {
		o := l.Order
		if o.OrderDate < p.Q5Date || o.OrderDate >= hi {
			continue
		}
		sn := l.Supplier.Nation
		if sn.Region.Name != p.Q5Region {
			continue
		}
		// Local supplier: customer and supplier share the nation.
		if o.Customer.Nation != sn {
			continue
		}
		rev[sn.Name] = rev[sn.Name].Add(l.ExtendedPrice.Mul(one.Sub(l.Discount)))
	}
	rows := make([]Q5Row, 0, len(rev))
	for n, v := range rev {
		rows = append(rows, Q5Row{Nation: n, Revenue: v})
	}
	SortQ5(rows)
	return rows
}

// ListQ6 runs the forecasting-revenue-change query.
func ListQ6(db *ManagedDB, p Params) decimal.Dec128 {
	hi := p.Q6Date.AddYears(1)
	lo := p.Q6Discount.Sub(decimal.MustParse("0.01"))
	hiD := p.Q6Discount.Add(decimal.MustParse("0.01"))
	var sum decimal.Dec128
	for _, l := range db.Lineitems.Items() {
		if l.ShipDate < p.Q6Date || l.ShipDate >= hi {
			continue
		}
		if l.Discount.Less(lo) || hiD.Less(l.Discount) {
			continue
		}
		if !l.Quantity.Less(p.Q6Quantity) {
			continue
		}
		sum = sum.Add(l.ExtendedPrice.Mul(l.Discount))
	}
	return sum
}

// ListQ10 runs the returned-item report via reference joins.
func ListQ10(db *ManagedDB, p Params) []Q10Row {
	hi := p.Q10Date.AddMonths(3)
	one := decimal.FromInt64(1)
	rev := make(map[*MCustomer]*decimal.Dec128)
	for _, l := range db.Lineitems.Items() {
		if l.ReturnFlag != 'R' {
			continue
		}
		o := l.Order
		if o.OrderDate < p.Q10Date || o.OrderDate >= hi {
			continue
		}
		c := o.Customer
		a := rev[c]
		if a == nil {
			a = &decimal.Dec128{}
			rev[c] = a
		}
		*a = a.Add(l.ExtendedPrice.Mul(one.Sub(l.Discount)))
	}
	rows := make([]Q10Row, 0, len(rev))
	for c, v := range rev {
		rows = append(rows, Q10Row{
			CustKey: c.Key, Name: c.Name, Revenue: *v, AcctBal: c.AcctBal,
			Nation: c.Nation.Name, Address: c.Address, Phone: c.Phone,
			Comment: c.Comment,
		})
	}
	return SortQ10(rows)
}

// ListAll runs Q1–Q6 over the managed lists.
func ListAll(db *ManagedDB, p Params) *Result {
	return &Result{
		Q1: ListQ1(db, p),
		Q2: ListQ2(db, p),
		Q3: ListQ3(db, p),
		Q4: ListQ4(db, p),
		Q5: ListQ5(db, p),
		Q6: ListQ6(db, p),
	}
}
