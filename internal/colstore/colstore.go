// Package colstore is the stand-in for the commercial RDBMS the paper
// compares against in Figure 13: SQL Server 2014's in-memory column
// store, configured with clustered indexes on l_shipdate and o_orderdate,
// read-uncommitted isolation and no intra-query parallelism (§7).
//
// The substitution (documented in DESIGN.md) keeps the properties the
// paper credits the comparator with:
//
//   - columnar storage: each attribute is a contiguous typed array;
//     low-cardinality strings are dictionary-encoded (the "compressed
//     in-memory columnar store");
//   - clustered organisation: LINEITEM is sorted by ShipDate and ORDERS
//     by OrderDate, so date-range predicates prune by binary search —
//     this is why the paper's database wins the queries with selective
//     date predicates;
//   - value-based joins: hash tables on integer keys, in contrast to the
//     SMC engines' reference joins — this is why SMCs win the join-heavy
//     queries.
//
// The executor is single-threaded and vectorised per column, like the
// configuration used in the paper.
package colstore

import (
	"sort"

	"repro/internal/decimal"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Dict is a dictionary-encoded string column.
type Dict struct {
	Values []string         // id -> string
	Codes  []uint8          // row -> id
	index  map[string]uint8 // string -> id (build time)
}

func newDict() *Dict { return &Dict{index: make(map[string]uint8)} }

func (d *Dict) append(s string) {
	id, ok := d.index[s]
	if !ok {
		id = uint8(len(d.Values))
		d.index[s] = id
		d.Values = append(d.Values, s)
	}
	d.Codes = append(d.Codes, id)
}

// Code returns the dictionary id for s, or -1 if absent.
func (d *Dict) Code(s string) int {
	if id, ok := d.index[s]; ok {
		return int(id)
	}
	return -1
}

// At returns the decoded string at row i.
func (d *Dict) At(i int) string { return d.Values[d.Codes[i]] }

// LineitemCols is the LINEITEM column set, clustered by ShipDate.
type LineitemCols struct {
	N          int
	OrderKey   []int64
	SuppKey    []int64
	Quantity   []decimal.Dec128
	ExtPrice   []decimal.Dec128
	Discount   []decimal.Dec128
	Tax        []decimal.Dec128
	RetFlag    []int32
	LineStatus []int32
	ShipDate   []types.Date // sorted ascending (clustered index)
	CommitDate []types.Date
	RecvDate   []types.Date
}

// OrdersCols is the ORDERS column set, clustered by OrderDate.
type OrdersCols struct {
	N         int
	Key       []int64
	CustKey   []int64
	OrderDate []types.Date // sorted ascending (clustered index)
	Priority  *Dict
	ShipPrio  []int32
}

// CustomerCols is the CUSTOMER column set.
type CustomerCols struct {
	N         int
	Key       []int64
	NationKey []int64
	Segment   *Dict
	keyToRow  map[int64]int32
}

// SupplierCols is the SUPPLIER column set.
type SupplierCols struct {
	N         int
	Key       []int64
	Name      []string
	Address   []string
	NationKey []int64
	Phone     []string
	AcctBal   []decimal.Dec128
	Comment   []string
	keyToRow  map[int64]int32
}

// PartCols is the PART column set.
type PartCols struct {
	N    int
	Key  []int64
	Mfgr []string
	Type []string
	Size []int32
}

// PartSuppCols is the PARTSUPP column set.
type PartSuppCols struct {
	N       int
	PartKey []int64
	SuppKey []int64
	Cost    []decimal.Dec128
}

// NationCols is the NATION column set.
type NationCols struct {
	N         int
	Key       []int64
	Name      []string
	RegionKey []int64
}

// RegionCols is the REGION column set.
type RegionCols struct {
	N    int
	Key  []int64
	Name []string
}

// DB is the loaded column store.
type DB struct {
	Lineitem LineitemCols
	Orders   OrdersCols
	Customer CustomerCols
	Supplier SupplierCols
	Part     PartCols
	PartSupp PartSuppCols
	Nation   NationCols
	Region   RegionCols

	// q1Slot is Q1's dense group-table scratch (64K 16-bit keys),
	// allocated once and reset per query by zeroing only the touched
	// entries. Like the executor itself (see package comment), it is
	// single-threaded state.
	q1Slot []int32
}

// Load builds the column store from a generated dataset, sorting the fact
// tables by their clustered keys.
func Load(d *tpch.Dataset) *DB {
	db := &DB{}

	// LINEITEM, clustered by ShipDate.
	perm := make([]int, len(d.Lineitems))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return d.Lineitems[perm[a]].ShipDate < d.Lineitems[perm[b]].ShipDate
	})
	lc := &db.Lineitem
	lc.N = len(perm)
	for _, i := range perm {
		l := &d.Lineitems[i]
		lc.OrderKey = append(lc.OrderKey, l.OrderKey)
		lc.SuppKey = append(lc.SuppKey, l.SupplierKey)
		lc.Quantity = append(lc.Quantity, l.Quantity)
		lc.ExtPrice = append(lc.ExtPrice, l.ExtendedPrice)
		lc.Discount = append(lc.Discount, l.Discount)
		lc.Tax = append(lc.Tax, l.Tax)
		lc.RetFlag = append(lc.RetFlag, l.ReturnFlag)
		lc.LineStatus = append(lc.LineStatus, l.LineStatus)
		lc.ShipDate = append(lc.ShipDate, l.ShipDate)
		lc.CommitDate = append(lc.CommitDate, l.CommitDate)
		lc.RecvDate = append(lc.RecvDate, l.ReceiptDate)
	}

	// ORDERS, clustered by OrderDate.
	operm := make([]int, len(d.Orders))
	for i := range operm {
		operm[i] = i
	}
	sort.SliceStable(operm, func(a, b int) bool {
		return d.Orders[operm[a]].OrderDate < d.Orders[operm[b]].OrderDate
	})
	oc := &db.Orders
	oc.N = len(operm)
	oc.Priority = newDict()
	for _, i := range operm {
		o := &d.Orders[i]
		oc.Key = append(oc.Key, o.Key)
		oc.CustKey = append(oc.CustKey, o.CustomerKey)
		oc.OrderDate = append(oc.OrderDate, o.OrderDate)
		oc.Priority.append(o.OrderPriority)
		oc.ShipPrio = append(oc.ShipPrio, o.ShipPriority)
	}

	cc := &db.Customer
	cc.N = len(d.Customers)
	cc.Segment = newDict()
	cc.keyToRow = make(map[int64]int32, cc.N)
	for i := range d.Customers {
		c := &d.Customers[i]
		cc.Key = append(cc.Key, c.Key)
		cc.NationKey = append(cc.NationKey, c.NationKey)
		cc.Segment.append(c.MktSegment)
		cc.keyToRow[c.Key] = int32(i)
	}

	sc := &db.Supplier
	sc.N = len(d.Suppliers)
	sc.keyToRow = make(map[int64]int32, sc.N)
	for i := range d.Suppliers {
		s := &d.Suppliers[i]
		sc.Key = append(sc.Key, s.Key)
		sc.Name = append(sc.Name, s.Name)
		sc.Address = append(sc.Address, s.Address)
		sc.NationKey = append(sc.NationKey, s.NationKey)
		sc.Phone = append(sc.Phone, s.Phone)
		sc.AcctBal = append(sc.AcctBal, s.AcctBal)
		sc.Comment = append(sc.Comment, s.Comment)
		sc.keyToRow[s.Key] = int32(i)
	}

	pc := &db.Part
	pc.N = len(d.Parts)
	for i := range d.Parts {
		p := &d.Parts[i]
		pc.Key = append(pc.Key, p.Key)
		pc.Mfgr = append(pc.Mfgr, p.Mfgr)
		pc.Type = append(pc.Type, p.Type)
		pc.Size = append(pc.Size, p.Size)
	}

	psc := &db.PartSupp
	psc.N = len(d.PartSupps)
	for i := range d.PartSupps {
		ps := &d.PartSupps[i]
		psc.PartKey = append(psc.PartKey, ps.PartKey)
		psc.SuppKey = append(psc.SuppKey, ps.SupplierKey)
		psc.Cost = append(psc.Cost, ps.SupplyCost)
	}

	nc := &db.Nation
	nc.N = len(d.Nations)
	for i := range d.Nations {
		n := &d.Nations[i]
		nc.Key = append(nc.Key, n.Key)
		nc.Name = append(nc.Name, n.Name)
		nc.RegionKey = append(nc.RegionKey, n.RegionKey)
	}

	rc := &db.Region
	rc.N = len(d.Regions)
	for i := range d.Regions {
		r := &d.Regions[i]
		rc.Key = append(rc.Key, r.Key)
		rc.Name = append(rc.Name, r.Name)
	}
	return db
}

// dateLowerBound returns the first index with dates[i] >= d (dates
// ascending): the clustered-index seek.
func dateLowerBound(dates []types.Date, d types.Date) int {
	return sort.Search(len(dates), func(i int) bool { return dates[i] >= d })
}

// regionKeyByName resolves a region name to its key, or -1.
func (db *DB) regionKeyByName(name string) int64 {
	for i, n := range db.Region.Name {
		if n == name {
			return db.Region.Key[i]
		}
	}
	return -1
}

// nationsInRegion returns the set of nation keys belonging to a region.
func (db *DB) nationsInRegion(regionKey int64) map[int64]string {
	out := make(map[int64]string)
	for i := 0; i < db.Nation.N; i++ {
		if db.Nation.RegionKey[i] == regionKey {
			out[db.Nation.Key[i]] = db.Nation.Name[i]
		}
	}
	return out
}
