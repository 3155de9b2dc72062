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

// TestAllEnginesAgree is the gold test: List (compiled), Dictionary,
// LINQ, SMC safe, SMC unsafe (all three layouts) and the column store
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
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect, core.Columnar} {
		layout := layout
		t.Run("smc-"+layout.String(), func(t *testing.T) {
			rt := core.MustRuntime(core.Options{HeapBackend: true})
			defer rt.Close()
			s := rt.MustSession()
			defer s.Close()
			sdb, err := LoadSMC(rt, s, d, layout)
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

func TestSMCQueriesSurviveChurnAndCompaction(t *testing.T) {
	// Remove a deterministic slice of lineitems from both the managed
	// and the SMC representation, compact, and compare results again.
	d := testDataset(t)
	p := DefaultParams()

	mdb := LoadManaged(d)
	rt := core.MustRuntime(core.Options{HeapBackend: true})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowDirect)
	if err != nil {
		t.Fatal(err)
	}

	// Remove every 4th lineitem (predicate on orderkey%4… use row order).
	drop := func(orderKey int64) bool { return orderKey%4 == 0 }
	mdb.Lineitems.RemoveWhere(func(l *MLineitem) bool { return drop(l.OrderKey) })

	var victims []core.Ref[SLineitem]
	sdb.Lineitems.ForEach(s, func(r core.Ref[SLineitem], l *SLineitem) bool {
		if drop(l.OrderKey) {
			victims = append(victims, r)
		}
		return true
	})
	for _, v := range victims {
		if err := sdb.Lineitems.Remove(s, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.CompactNow(); err != nil {
		t.Fatal(err)
	}

	gold := ListAll(mdb, p)
	q := NewSMCQueries(sdb)
	if diff := gold.Diff(q.All(s, p)); diff != "" {
		t.Fatalf("after churn+compaction: %s", diff)
	}
	gold10 := ListQ10(mdb, p)
	if len(gold10) == 0 {
		t.Fatal("gold Q10 empty after churn")
	}
	if got := q.Q10(s, p); !slices.Equal(got, gold10) {
		t.Fatalf("after churn+compaction Q10:\n got %+v\nwant %+v", got, gold10)
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
