package tpch

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// testSF keeps the cross-engine tests fast but large enough to hit every
// query's grouping and join paths (≈6k lineitems).
const testSF = 0.001

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(testSF, 42)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 7)
	b := Generate(0.001, 7)
	if len(a.Lineitems) != len(b.Lineitems) {
		t.Fatal("non-deterministic cardinality")
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatalf("lineitem %d differs", i)
		}
	}
	c := Generate(0.001, 8)
	same := 0
	for i := range a.Lineitems {
		if i < len(c.Lineitems) && a.Lineitems[i] == c.Lineitems[i] {
			same++
		}
	}
	if same == len(a.Lineitems) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateShape(t *testing.T) {
	d := testDataset(t)
	if len(d.Regions) != 5 || len(d.Nations) != 25 {
		t.Fatalf("region/nation counts: %d/%d", len(d.Regions), len(d.Nations))
	}
	if len(d.Orders) == 0 || len(d.Lineitems) < len(d.Orders) {
		t.Fatalf("orders=%d lineitems=%d", len(d.Orders), len(d.Lineitems))
	}
	avg := float64(len(d.Lineitems)) / float64(len(d.Orders))
	if avg < 2 || avg > 6 {
		t.Fatalf("avg lineitems per order = %v, want 1..7 uniform (≈4)", avg)
	}
	// Every FK resolves.
	nPart, nSupp, nCust := int64(len(d.Parts)), int64(len(d.Suppliers)), int64(len(d.Customers))
	for _, l := range d.Lineitems {
		if l.PartKey < 1 || l.PartKey > nPart || l.SupplierKey < 1 || l.SupplierKey > nSupp {
			t.Fatalf("lineitem FK out of range: %+v", l)
		}
	}
	for _, o := range d.Orders {
		if o.CustomerKey < 1 || o.CustomerKey > nCust {
			t.Fatalf("order FK out of range: %+v", o)
		}
	}
	// Date sanity: shipdate after orderdate.
	byKey := make(map[int64]OrderRow)
	for _, o := range d.Orders {
		byKey[o.Key] = o
	}
	for _, l := range d.Lineitems {
		o := byKey[l.OrderKey]
		if l.ShipDate <= o.OrderDate {
			t.Fatalf("shipdate %v not after orderdate %v", l.ShipDate, o.OrderDate)
		}
		if l.ReceiptDate <= l.ShipDate {
			t.Fatalf("receiptdate %v not after shipdate %v", l.ReceiptDate, l.ShipDate)
		}
	}
}

// posture assigns each of the eight collections a layout, by collection
// name (loadSMC).
type posture struct {
	name     string
	layoutOf func(collection string) core.Layout
}

// postures lists the three uniform layouts, named by their layout, and
// three mixes of a lineitem layout with one layout for the other seven:
// "mixed" (columnar lineitem), "inverse" (row lineitem, columnar
// dimensions: a database-wide "rows" flag would read the dimensions'
// packed columnar payloads as addresses) and "direct-mix" (a columnar
// lineitem holding §6 direct pointers into RowDirect dimensions).
func postures() []posture {
	uniform := func(l core.Layout) posture {
		return posture{l.String(), func(string) core.Layout { return l }}
	}
	split := func(name string, lineitem, rest core.Layout) posture {
		return posture{name, func(c string) core.Layout {
			if c == "lineitem" {
				return lineitem
			}
			return rest
		}}
	}
	return []posture{
		uniform(core.RowIndirect), uniform(core.RowDirect), uniform(core.Columnar),
		split("mixed", core.Columnar, core.RowIndirect),
		split("inverse", core.RowIndirect, core.Columnar),
		split("direct-mix", core.Columnar, core.RowDirect),
	}
}

// TestAllEnginesAgree is the gold test: List (compiled), Dictionary,
// LINQ, SMC safe, SMC unsafe (on every posture) and the column store
// must produce byte-identical results for Q1–Q6, and the SMC unsafe
// engine the same Q10 as List.
func TestAllEnginesAgree(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()

	mdb := LoadManaged(d)
	gold := ListAll(mdb, p)
	gold10 := ListQ10(mdb, p)

	if len(gold.Q1) == 0 || len(gold.Q3) == 0 || len(gold.Q4) == 0 || len(gold.Q5) == 0 || gold.Q6.IsZero() || len(gold10) == 0 {
		t.Fatalf("gold result suspiciously empty: %d/%d/%d/%d/%v/%d",
			len(gold.Q1), len(gold.Q3), len(gold.Q4), len(gold.Q5), gold.Q6, len(gold10))
	}

	t.Run("dict", func(t *testing.T) {
		ddb := LoadDict(mdb)
		if diff := gold.Diff(DictAll(ddb, p)); diff != "" {
			t.Fatal(diff)
		}
	})
	t.Run("linq", func(t *testing.T) {
		if diff := gold.Diff(LinqAll(mdb, p)); diff != "" {
			t.Fatal(diff)
		}
	})
	for _, pos := range postures() {
		t.Run("smc-"+pos.name, func(t *testing.T) {
			rt := core.MustRuntime(core.Options{HeapBackend: true})
			defer rt.Close()
			s := rt.MustSession()
			defer s.Close()
			sdb, err := loadSMC(rt, s, d, pos.layoutOf)
			if err != nil {
				t.Fatal(err)
			}
			if diff := gold.Diff(SMCSafeAll(sdb, s, p)); diff != "" {
				t.Fatalf("safe: %s", diff)
			}
			q := NewSMCQueries(sdb)
			if diff := gold.Diff(q.All(s, p)); diff != "" {
				t.Fatalf("unsafe: %s", diff)
			}
			if got := q.Q10(s, p); !slices.Equal(got, gold10) {
				t.Fatalf("unsafe Q10:\n got %+v\nwant %+v", got, gold10)
			}
		})
	}
}

// TestSMCQueriesSurviveChurnAndCompaction removes three orders in four,
// with their lineitems, from both the managed and the SMC representation,
// compacts, and compares Q1–Q6 and Q10 again on every posture. Small
// blocks make the pass move orders as well as lineitems, so the hops into
// relocated orders are checked too — on RowDirect orders after the
// direct-pointer fix-up scan over the lineitem source.
func TestSMCQueriesSurviveChurnAndCompaction(t *testing.T) {
	d := joinDataset(t)
	p := DefaultParams()
	drop := func(orderKey int64) bool { return orderKey%4 != 0 }

	mdb := LoadManaged(d)
	mdb.Lineitems.RemoveWhere(func(l *MLineitem) bool { return drop(l.OrderKey) })
	mdb.Orders.RemoveWhere(func(o *MOrder) bool { return drop(o.Key) })
	gold := ListAll(mdb, p)
	gold10 := ListQ10(mdb, p)
	if len(gold.Q3) == 0 || len(gold.Q4) == 0 || len(gold.Q5) == 0 || len(gold10) == 0 {
		t.Fatalf("gold result empty after churn: Q3/Q4/Q5/Q10 = %d/%d/%d/%d rows", len(gold.Q3), len(gold.Q4), len(gold.Q5), len(gold10))
	}

	for _, pos := range postures() {
		t.Run(pos.name, func(t *testing.T) {
			rt := core.MustRuntime(core.Options{HeapBackend: true, BlockSize: 1 << 14})
			defer rt.Close()
			s := rt.MustSession()
			defer s.Close()
			sdb, err := loadSMC(rt, s, d, pos.layoutOf)
			if err != nil {
				t.Fatal(err)
			}
			removeWhere(t, s, sdb.Lineitems, func(l *SLineitem) bool { return drop(l.OrderKey) })
			removeWhere(t, s, sdb.Orders, func(o *SOrder) bool { return drop(o.Key) })
			orderBlocks := len(sdb.Orders.Context().SnapshotBlocks())
			if _, err := rt.CompactNow(); err != nil {
				t.Fatal(err)
			}
			if n := len(sdb.Orders.Context().SnapshotBlocks()); n >= orderBlocks {
				t.Fatalf("compaction left %d of %d orders blocks: no hop into a moved order is checked", n, orderBlocks)
			}

			q := NewSMCQueries(sdb)
			if diff := gold.Diff(q.All(s, p)); diff != "" {
				t.Fatalf("after churn+compaction: %s", diff)
			}
			if got := q.Q10(s, p); !slices.Equal(got, gold10) {
				t.Fatalf("after churn+compaction Q10:\n got %+v\nwant %+v", got, gold10)
			}
		})
	}
}

// removeWhere removes every object of c that pred selects.
func removeWhere[T any](t *testing.T, s *core.Session, c *core.Collection[T], pred func(*T) bool) {
	t.Helper()
	var victims []core.Ref[T]
	c.ForEach(s, func(r core.Ref[T], v *T) bool {
		if pred(v) {
			victims = append(victims, r)
		}
		return true
	})
	for _, v := range victims {
		if err := c.Remove(s, v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResultDiffDetects(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()
	mdb := LoadManaged(d)
	a := ListAll(mdb, p)
	b := ListAll(mdb, p)
	if diff := a.Diff(b); diff != "" {
		t.Fatalf("identical results diff: %s", diff)
	}
	if !a.Equal(b) {
		t.Fatal("Equal is false for identical results")
	}
	b.Q6 = b.Q6.Add(b.Q6)
	if a.Diff(b) == "" {
		t.Fatal("Diff missed a Q6 change")
	}
	b2 := ListAll(mdb, p)
	b2.Q1[0].Count++
	if a.Diff(b2) == "" {
		t.Fatal("Diff missed a Q1 change")
	}
}
