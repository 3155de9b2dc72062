package tpch

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/decimal"
	"repro/internal/region"
	"repro/internal/types"
)

// Additional behavioural tests for the TPC-H substrate: sort caps and
// tie-breaks, generator scaling, and the dictionary key packing.

func TestSortQ2CapsAtHundred(t *testing.T) {
	rows := make([]Q2Row, 0, 150)
	for i := 0; i < 150; i++ {
		rows = append(rows, Q2Row{
			AcctBal: decimal.FromInt64(int64(i % 7)),
			NName:   "N",
			SName:   "S",
			PartKey: int64(i),
		})
	}
	out := SortQ2(rows)
	if len(out) != 100 {
		t.Fatalf("Q2 rows = %d, want 100", len(out))
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if c := a.AcctBal.Cmp(b.AcctBal); c < 0 {
			t.Fatal("Q2 not sorted by acctbal desc")
		} else if c == 0 && a.PartKey > b.PartKey {
			t.Fatal("Q2 tie-break by partkey violated")
		}
	}
}

func TestSortQ3CapsAtTen(t *testing.T) {
	rows := make([]Q3Row, 0, 30)
	for i := 0; i < 30; i++ {
		rows = append(rows, Q3Row{
			OrderKey: int64(i),
			Revenue:  decimal.FromInt64(int64(i % 5)),
			OrderDate: types.MustDate("1995-01-01").
				AddDays(i % 3),
		})
	}
	out := SortQ3(rows)
	if len(out) != 10 {
		t.Fatalf("Q3 rows = %d, want 10", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Revenue.Less(out[i].Revenue) {
			t.Fatal("Q3 not sorted by revenue desc")
		}
	}
}

func TestSortQ10CapsAtTwenty(t *testing.T) {
	rows := make([]Q10Row, 0, 50)
	for i := 0; i < 50; i++ {
		rows = append(rows, Q10Row{
			CustKey: int64(i),
			Revenue: decimal.FromInt64(int64(i % 4)),
		})
	}
	out := SortQ10(rows)
	if len(out) != 20 {
		t.Fatalf("Q10 rows = %d, want 20", len(out))
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if c := a.Revenue.Cmp(b.Revenue); c < 0 {
			t.Fatal("Q10 not sorted by revenue desc")
		} else if c == 0 && a.CustKey > b.CustKey {
			t.Fatal("Q10 tie-break by custkey violated")
		}
	}
}

// TestQ10CutoffIsSortQ10sLastRow pins the late-materialization cut to
// the oracle it replaces: for revenue tables below, at and above the row
// cap, with ties, q10Cutoff names exactly the last row SortQ10 keeps —
// so filtering customers by it before materializing changes no row.
func TestQ10CutoffIsSortQ10sLastRow(t *testing.T) {
	for _, n := range []int{1, 19, 20, 21, 500} {
		a := region.NewArena(nil, 0)
		rev := region.NewPartitionedTable[decimal.Dec128](a, 4, 16)
		rows := make([]Q10Row, 0, n)
		for i := 0; i < n; i++ {
			k := int64(i*7919%n) + 1 // a permutation of 1..n: insertion order is not report order
			r := decimal.FromInt64(k % 9)
			*rev.At(k) = r
			rows = append(rows, Q10Row{CustKey: k, Revenue: r})
		}
		want := SortQ10(rows)
		last := want[len(want)-1]
		if cut := q10Cutoff(rev); cut.key != last.CustKey || cut.rev != last.Revenue {
			t.Errorf("n=%d: cutoff = (%d, %v), want SortQ10's last row (%d, %v)", n, cut.key, cut.rev, last.CustKey, last.Revenue)
		}
		a.Release()
	}
}

func TestGenerateScalesLinearly(t *testing.T) {
	small := Generate(0.001, 3)
	large := Generate(0.004, 3)
	ratio := func(a, b int) float64 { return float64(b) / float64(a) }
	if r := ratio(len(small.Orders), len(large.Orders)); r < 3.5 || r > 4.5 {
		t.Fatalf("orders scale ratio = %v, want ~4", r)
	}
	if r := ratio(len(small.Customers), len(large.Customers)); r < 3.5 || r > 4.5 {
		t.Fatalf("customers scale ratio = %v, want ~4", r)
	}
	// Fixed-size tables stay fixed.
	if len(small.Regions) != len(large.Regions) || len(small.Nations) != len(large.Nations) {
		t.Fatal("region/nation must not scale")
	}
	// PARTSUPP is exactly 4 rows per part.
	if len(large.PartSupps) != 4*len(large.Parts) {
		t.Fatalf("partsupp = %d for %d parts", len(large.PartSupps), len(large.Parts))
	}
}

// generateGolden is the FNV-64a checksum of every row of
// Generate(testSF, 42), each row printed with %+v in table order. The
// benchmark's dataset comes from the same generator, so a change that
// moves this value changes every measured figure too.
const generateGolden = 0x04327885ce473899

// TestGenerateGolden pins the generator's output row for row: query
// code may come and go, the data it is measured on may not move.
func TestGenerateGolden(t *testing.T) {
	d := testDataset(t)
	h := fnv.New64a()
	for _, r := range d.Regions {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Nations {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Suppliers {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Customers {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Parts {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.PartSupps {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Orders {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, r := range d.Lineitems {
		fmt.Fprintf(h, "%+v\n", r)
	}
	if got := h.Sum64(); got != generateGolden {
		t.Fatalf("Generate(%v, 42) checksum = %#x, want %#x", testSF, got, uint64(generateGolden))
	}
}

// TestGeneratePartSuppCoversLineitems checks that every lineitem's
// (partkey, suppkey) has a PARTSUPP row, as in dbgen.
func TestGeneratePartSuppCoversLineitems(t *testing.T) {
	d := testDataset(t)
	type psKey struct{ part, supp int64 }
	have := make(map[psKey]bool, len(d.PartSupps))
	for _, ps := range d.PartSupps {
		have[psKey{ps.PartKey, ps.SupplierKey}] = true
	}
	for i, l := range d.Lineitems {
		if !have[psKey{l.PartKey, l.SupplierKey}] {
			t.Fatalf("lineitem %d: no partsupp row for (part %d, supp %d)",
				i, l.PartKey, l.SupplierKey)
		}
	}
}

// TestGeneratePartNameColors checks that part names draw on the dbgen
// color vocabulary at a dbgen-like rate: a LIKE '%green%' filter hits
// about 1/17 of parts in TPC-H; ours uses a 20-color pool drawn twice.
func TestGeneratePartNameColors(t *testing.T) {
	d := testDataset(t)
	hits := 0
	for _, pt := range d.Parts {
		if strings.Contains(pt.Name, "green") {
			hits++
		}
	}
	frac := float64(hits) / float64(len(d.Parts))
	if frac < 0.02 || frac > 0.3 {
		t.Fatalf("green-part fraction = %v, want a dbgen-like selectivity", frac)
	}
}

func TestGenerateRejectsBadSF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive SF should panic")
		}
	}()
	Generate(0, 1)
}

func TestLineKeyUnique(t *testing.T) {
	seen := make(map[int64]bool)
	for ok := int64(1); ok <= 100; ok++ {
		for ln := int32(1); ln <= 7; ln++ {
			k := LineKey(ok, ln)
			if seen[k] {
				t.Fatalf("LineKey collision at (%d,%d)", ok, ln)
			}
			seen[k] = true
		}
	}
}

func TestOrderTotalsMatchLineitems(t *testing.T) {
	// The generator computes o_totalprice as the sum of its lineitems'
	// charges; check the invariant the way Q1 computes charges.
	d := testDataset(t)
	one := decimal.FromInt64(1)
	totals := make(map[int64]decimal.Dec128)
	for _, l := range d.Lineitems {
		charge := l.ExtendedPrice.Mul(one.Sub(l.Discount)).Mul(one.Add(l.Tax))
		totals[l.OrderKey] = totals[l.OrderKey].Add(charge)
	}
	for _, o := range d.Orders {
		if totals[o.Key] != o.TotalPrice {
			t.Fatalf("order %d total %v, lineitems sum %v", o.Key, o.TotalPrice, totals[o.Key])
		}
	}
}

func TestOrderStatusConsistent(t *testing.T) {
	d := testDataset(t)
	status := make(map[int64][2]bool) // anyF, anyO
	for _, l := range d.Lineitems {
		st := status[l.OrderKey]
		if l.LineStatus == 'F' {
			st[0] = true
		} else {
			st[1] = true
		}
		status[l.OrderKey] = st
	}
	for _, o := range d.Orders {
		st := status[o.Key]
		switch {
		case st[0] && !st[1]:
			if o.OrderStatus != 'F' {
				t.Fatalf("order %d all-F but status %c", o.Key, o.OrderStatus)
			}
		case st[0] && st[1]:
			if o.OrderStatus != 'P' {
				t.Fatalf("order %d mixed but status %c", o.Key, o.OrderStatus)
			}
		default:
			if o.OrderStatus != 'O' {
				t.Fatalf("order %d all-O but status %c", o.Key, o.OrderStatus)
			}
		}
	}
}
