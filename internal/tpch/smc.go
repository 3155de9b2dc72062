package tpch

import (
	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/types"
)

// Tabular element types for the self-managed collections. References use
// core.Ref, so the PK-FK joins run by reference exactly as in the managed
// graph — but the objects live off-heap in the collections' private
// memory blocks.
type (
	// SRegion is the self-managed REGION record.
	SRegion struct {
		Key     int64
		Name    string
		Comment string
	}
	// SNation is the self-managed NATION record.
	SNation struct {
		Key     int64
		Name    string
		Region  core.Ref[SRegion]
		Comment string
	}
	// SSupplier is the self-managed SUPPLIER record.
	SSupplier struct {
		Key     int64
		Name    string
		Address string
		Nation  core.Ref[SNation]
		Phone   string
		AcctBal decimal.Dec128
		Comment string
	}
	// SCustomer is the self-managed CUSTOMER record.
	SCustomer struct {
		Key        int64
		Name       string
		Address    string
		Nation     core.Ref[SNation]
		Phone      string
		AcctBal    decimal.Dec128
		MktSegment string
		Comment    string
	}
	// SPart is the self-managed PART record.
	SPart struct {
		Key         int64
		Name        string
		Mfgr        string
		Brand       string
		Type        string
		Size        int32
		Container   string
		RetailPrice decimal.Dec128
		Comment     string
	}
	// SPartSupp is the self-managed PARTSUPP record.
	SPartSupp struct {
		Part       core.Ref[SPart]
		Supplier   core.Ref[SSupplier]
		AvailQty   int32
		SupplyCost decimal.Dec128
		Comment    string
	}
	// SOrder is the self-managed ORDERS record.
	SOrder struct {
		Key           int64
		Customer      core.Ref[SCustomer]
		OrderStatus   int32
		TotalPrice    decimal.Dec128
		OrderDate     types.Date
		OrderPriority string
		Clerk         string
		ShipPriority  int32
		Comment       string
	}
	// SLineitem is the self-managed LINEITEM record.
	SLineitem struct {
		Order         core.Ref[SOrder]
		Part          core.Ref[SPart]
		Supplier      core.Ref[SSupplier]
		OrderKey      int64
		LineNumber    int32
		Quantity      decimal.Dec128
		ExtendedPrice decimal.Dec128
		Discount      decimal.Dec128
		Tax           decimal.Dec128
		ReturnFlag    int32
		LineStatus    int32
		ShipDate      types.Date
		CommitDate    types.Date
		ReceiptDate   types.Date
		ShipInstruct  string
		ShipMode      string
		Comment       string
	}
)

// SMCDB holds the dataset in self-managed collections.
type SMCDB struct {
	RT        *core.Runtime
	Regions   *core.Collection[SRegion]
	Nations   *core.Collection[SNation]
	Suppliers *core.Collection[SSupplier]
	Customers *core.Collection[SCustomer]
	Parts     *core.Collection[SPart]
	PartSupps *core.Collection[SPartSupp]
	Orders    *core.Collection[SOrder]
	Lineitems *core.Collection[SLineitem]
}

// NewSMCDB creates the eight collections (in dependency order) in the
// given layout.
func NewSMCDB(rt *core.Runtime, layout core.Layout) (*SMCDB, error) {
	return newSMCDB(rt, func(string) core.Layout { return layout })
}

// newSMCDB is NewSMCDB with a layout per collection, named by its
// collection name.
func newSMCDB(rt *core.Runtime, layoutOf func(name string) core.Layout) (*SMCDB, error) {
	db := &SMCDB{RT: rt}
	var err error
	if db.Regions, err = core.NewCollection[SRegion](rt, "region", layoutOf("region")); err != nil {
		return nil, err
	}
	if db.Nations, err = core.NewCollection[SNation](rt, "nation", layoutOf("nation")); err != nil {
		return nil, err
	}
	if db.Suppliers, err = core.NewCollection[SSupplier](rt, "supplier", layoutOf("supplier")); err != nil {
		return nil, err
	}
	if db.Customers, err = core.NewCollection[SCustomer](rt, "customer", layoutOf("customer")); err != nil {
		return nil, err
	}
	if db.Parts, err = core.NewCollection[SPart](rt, "part", layoutOf("part")); err != nil {
		return nil, err
	}
	if db.PartSupps, err = core.NewCollection[SPartSupp](rt, "partsupp", layoutOf("partsupp")); err != nil {
		return nil, err
	}
	if db.Orders, err = core.NewCollection[SOrder](rt, "orders", layoutOf("orders")); err != nil {
		return nil, err
	}
	if db.Lineitems, err = core.NewCollection[SLineitem](rt, "lineitem", layoutOf("lineitem")); err != nil {
		return nil, err
	}
	// Block synopses (min/max zone maps) for the columns the compiled
	// queries carry range predicates on: Q1/Q3/Q6 ship-date cuts, Q6's
	// discount/quantity intervals, Q10's return-flag equality and Q4's
	// order-date window. Registered at construction time, before any row
	// exists, so every block in the collections' lifetime carries bounds.
	if err = db.Lineitems.RegisterSynopses("ShipDate", "Discount", "Quantity", "ReturnFlag", "OrderKey"); err != nil {
		return nil, err
	}
	if err = db.Orders.RegisterSynopses("OrderDate", "Key"); err != nil {
		return nil, err
	}
	// OrderKey/Key synopses serve cross-edge semi-join pruning: Q3/Q10
	// take an order-key range set from the Key bounds of the orders blocks
	// their date cut admits (Q4 from its late-lineitem keys) and skip
	// lineitem (resp. orders) blocks whose key bounds miss it entirely.
	//
	// Cluster keys steer synopsis-aware compaction (inert unless the
	// runtime runs with core.PackCluster): maintenance re-sorts surviving
	// rows by the dominant scan dimension, so churned heaps recover tight,
	// near-disjoint per-block bounds instead of ever-widening ones.
	if err = db.Lineitems.RegisterClusterKey("ShipDate"); err != nil {
		return nil, err
	}
	if err = db.Orders.RegisterClusterKey("OrderDate"); err != nil {
		return nil, err
	}
	return db, nil
}

// LoadSMC materializes the dataset into self-managed collections.
func LoadSMC(rt *core.Runtime, s *core.Session, d *Dataset, layout core.Layout) (*SMCDB, error) {
	return loadSMC(rt, s, d, func(string) core.Layout { return layout })
}

// loadSMC is LoadSMC with a layout per collection (newSMCDB).
func loadSMC(rt *core.Runtime, s *core.Session, d *Dataset, layoutOf func(name string) core.Layout) (*SMCDB, error) {
	db, err := newSMCDB(rt, layoutOf)
	if err != nil {
		return nil, err
	}
	regionByKey := make(map[int64]core.Ref[SRegion], len(d.Regions))
	for i := range d.Regions {
		r := &d.Regions[i]
		ref, err := db.Regions.Add(s, &SRegion{Key: r.Key, Name: r.Name, Comment: r.Comment})
		if err != nil {
			return nil, err
		}
		regionByKey[r.Key] = ref
	}
	nationByKey := make(map[int64]core.Ref[SNation], len(d.Nations))
	for i := range d.Nations {
		n := &d.Nations[i]
		ref, err := db.Nations.Add(s, &SNation{Key: n.Key, Name: n.Name, Region: regionByKey[n.RegionKey], Comment: n.Comment})
		if err != nil {
			return nil, err
		}
		nationByKey[n.Key] = ref
	}
	suppByKey := make(map[int64]core.Ref[SSupplier], len(d.Suppliers))
	for i := range d.Suppliers {
		sr := &d.Suppliers[i]
		ref, err := db.Suppliers.Add(s, &SSupplier{
			Key: sr.Key, Name: sr.Name, Address: sr.Address,
			Nation: nationByKey[sr.NationKey], Phone: sr.Phone,
			AcctBal: sr.AcctBal, Comment: sr.Comment,
		})
		if err != nil {
			return nil, err
		}
		suppByKey[sr.Key] = ref
	}
	custByKey := make(map[int64]core.Ref[SCustomer], len(d.Customers))
	for i := range d.Customers {
		c := &d.Customers[i]
		ref, err := db.Customers.Add(s, &SCustomer{
			Key: c.Key, Name: c.Name, Address: c.Address,
			Nation: nationByKey[c.NationKey], Phone: c.Phone,
			AcctBal: c.AcctBal, MktSegment: c.MktSegment, Comment: c.Comment,
		})
		if err != nil {
			return nil, err
		}
		custByKey[c.Key] = ref
	}
	partByKey := make(map[int64]core.Ref[SPart], len(d.Parts))
	for i := range d.Parts {
		pt := &d.Parts[i]
		ref, err := db.Parts.Add(s, &SPart{
			Key: pt.Key, Name: pt.Name, Mfgr: pt.Mfgr, Brand: pt.Brand,
			Type: pt.Type, Size: pt.Size, Container: pt.Container,
			RetailPrice: pt.RetailPrice, Comment: pt.Comment,
		})
		if err != nil {
			return nil, err
		}
		partByKey[pt.Key] = ref
	}
	for i := range d.PartSupps {
		ps := &d.PartSupps[i]
		if _, err := db.PartSupps.Add(s, &SPartSupp{
			Part: partByKey[ps.PartKey], Supplier: suppByKey[ps.SupplierKey],
			AvailQty: ps.AvailQty, SupplyCost: ps.SupplyCost, Comment: ps.Comment,
		}); err != nil {
			return nil, err
		}
	}
	orderByKey := make(map[int64]core.Ref[SOrder], len(d.Orders))
	for i := range d.Orders {
		o := &d.Orders[i]
		ref, err := db.Orders.Add(s, &SOrder{
			Key: o.Key, Customer: custByKey[o.CustomerKey],
			OrderStatus: o.OrderStatus, TotalPrice: o.TotalPrice,
			OrderDate: o.OrderDate, OrderPriority: o.OrderPriority,
			Clerk: o.Clerk, ShipPriority: o.ShipPriority, Comment: o.Comment,
		})
		if err != nil {
			return nil, err
		}
		orderByKey[o.Key] = ref
	}
	for i := range d.Lineitems {
		l := &d.Lineitems[i]
		if _, err := db.Lineitems.Add(s, &SLineitem{
			Order: orderByKey[l.OrderKey], Part: partByKey[l.PartKey],
			Supplier: suppByKey[l.SupplierKey],
			OrderKey: l.OrderKey, LineNumber: l.LineNumber,
			Quantity: l.Quantity, ExtendedPrice: l.ExtendedPrice,
			Discount: l.Discount, Tax: l.Tax,
			ReturnFlag: l.ReturnFlag, LineStatus: l.LineStatus,
			ShipDate: l.ShipDate, CommitDate: l.CommitDate, ReceiptDate: l.ReceiptDate,
			ShipInstruct: l.ShipInstruct, ShipMode: l.ShipMode, Comment: l.Comment,
		}); err != nil {
			return nil, err
		}
	}
	return db, nil
}
