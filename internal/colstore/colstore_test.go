package colstore

import (
	"testing"

	"repro/internal/tpch"
	"repro/internal/types"
)

func TestColstoreAgreesWithList(t *testing.T) {
	d := tpch.Generate(0.001, 42)
	p := tpch.DefaultParams()
	gold := tpch.ListAll(tpch.LoadManaged(d), p)
	db := Load(d)
	if diff := gold.Diff(db.All(p)); diff != "" {
		t.Fatal(diff)
	}
}

func TestClusteredOrder(t *testing.T) {
	d := tpch.Generate(0.0005, 1)
	db := Load(d)
	for i := 1; i < db.Lineitem.N; i++ {
		if db.Lineitem.ShipDate[i] < db.Lineitem.ShipDate[i-1] {
			t.Fatal("lineitem not clustered by shipdate")
		}
	}
	for i := 1; i < db.Orders.N; i++ {
		if db.Orders.OrderDate[i] < db.Orders.OrderDate[i-1] {
			t.Fatal("orders not clustered by orderdate")
		}
	}
}

func TestDateLowerBound(t *testing.T) {
	dates := []types.Date{10, 20, 20, 30}
	cases := []struct {
		d    types.Date
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 3}, {30, 3}, {31, 4}}
	for _, c := range cases {
		if got := dateLowerBound(dates, c.d); got != c.want {
			t.Errorf("lowerBound(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDictEncoding(t *testing.T) {
	d := newDict()
	for _, s := range []string{"a", "b", "a", "c", "b"} {
		d.append(s)
	}
	if len(d.Values) != 3 {
		t.Fatalf("dict values = %d", len(d.Values))
	}
	if d.At(0) != "a" || d.At(2) != "a" || d.At(3) != "c" {
		t.Fatal("dict decode wrong")
	}
	if d.Code("b") != 1 || d.Code("zzz") != -1 {
		t.Fatal("dict code wrong")
	}
}

func TestQ6RangePruning(t *testing.T) {
	// Q6 over a window with no lineitems must return zero without error.
	d := tpch.Generate(0.0005, 1)
	db := Load(d)
	p := tpch.DefaultParams()
	p.Q6Date = types.MustDate("2020-01-01")
	if !db.Q6(p).IsZero() {
		t.Fatal("Q6 outside data range should be zero")
	}
}
