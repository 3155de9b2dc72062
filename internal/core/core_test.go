package core

import (
	"fmt"
	"testing"

	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/types"
)

type Person struct {
	Name string
	Age  int32
}

type Order struct {
	Key      int64
	Total    decimal.Dec128
	Date     types.Date
	Customer Ref[Person]
}

func testRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Options{BlockSize: 1 << 13, HeapBackend: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestAddGetRemoveSemantics(t *testing.T) {
	for _, layout := range []Layout{RowIndirect, RowDirect, Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			persons := MustCollection[Person](rt, "persons", layout)

			adam, err := persons.Add(s, &Person{Name: "Adam", Age: 27})
			if err != nil {
				t.Fatal(err)
			}
			got, err := persons.Get(s, adam)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != "Adam" || got.Age != 27 {
				t.Fatalf("Get = %+v", got)
			}
			if persons.Len() != 1 {
				t.Fatalf("Len = %d", persons.Len())
			}
			// "When the adam object is removed from the collection, it is
			// gone; ... dereferencing will throw" (§2).
			if err := persons.Remove(s, adam); err != nil {
				t.Fatal(err)
			}
			if _, err := persons.Get(s, adam); err != ErrNullReference {
				t.Fatalf("Get after Remove = %v", err)
			}
			if err := persons.Remove(s, adam); err != ErrNullReference {
				t.Fatalf("double Remove = %v", err)
			}
			if persons.Len() != 0 {
				t.Fatalf("Len after remove = %d", persons.Len())
			}
			var nilRef Ref[Person]
			if !nilRef.IsNil() {
				t.Fatal("zero Ref must be nil")
			}
			if _, err := persons.Get(s, nilRef); err != ErrNullReference {
				t.Fatalf("Get(nil) = %v", err)
			}
		})
	}
}

func TestCrossCollectionReferences(t *testing.T) {
	combos := []struct{ pl, ol Layout }{
		{RowIndirect, RowIndirect},
		{RowDirect, RowDirect},
		{RowDirect, RowIndirect},
		{RowIndirect, Columnar},
		{Columnar, RowIndirect},
	}
	for _, combo := range combos {
		t.Run(fmt.Sprintf("%v_%v", combo.pl, combo.ol), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			persons := MustCollection[Person](rt, "persons", combo.pl)
			orders := MustCollection[Order](rt, "orders", combo.ol)

			alice := persons.MustAdd(s, &Person{Name: "Alice", Age: 30})
			o := orders.MustAdd(s, &Order{
				Key:      42,
				Total:    decimal.MustParse("99.95"),
				Date:     types.MustDate("1995-03-15"),
				Customer: alice,
			})

			// Read back: the ref field must resolve to Alice.
			got, err := orders.Get(s, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != 42 || got.Total.String() != "99.9500" {
				t.Fatalf("order = %+v", got)
			}
			p, err := persons.Get(s, got.Customer)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name != "Alice" {
				t.Fatalf("customer = %+v", p)
			}

			// FieldRef join path (compiled query style).
			fr := orders.FieldRefByName("Customer")
			s.Enter()
			oobj, err := orders.Deref(s, o)
			if err != nil {
				t.Fatal(err)
			}
			pobj, err := fr.Deref(s, oobj)
			if err != nil {
				t.Fatal(err)
			}
			ageF := persons.Schema().MustField("Age")
			if age := *(*int32)(pobj.Field(ageF)); age != 30 {
				t.Fatalf("joined age = %d", age)
			}
			s.Exit()

			// Removing Alice nulls the reference inside the order.
			if err := persons.Remove(s, alice); err != nil {
				t.Fatal(err)
			}
			got2, err := orders.Get(s, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := persons.Get(s, got2.Customer); err != ErrNullReference {
				t.Fatalf("ref to removed customer = %v, want null", err)
			}
			s.Enter()
			oobj2, _ := orders.Deref(s, o)
			if _, err := fr.Deref(s, oobj2); err != ErrNullReference {
				t.Fatalf("FieldRef to removed customer = %v, want null", err)
			}
			s.Exit()
		})
	}
}

func TestLateBinding(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	// Order references Person, but the Person collection is created
	// later: the ref field stays unbound (null-only) until then.
	orders, err := NewCollection[Order](rt, "orders", RowIndirect)
	if err != nil {
		t.Fatalf("creation out of dependency order should late-bind: %v", err)
	}
	o1 := orders.MustAdd(s, &Order{Key: 1}) // nil customer is fine
	persons := MustCollection[Person](rt, "persons", RowDirect)
	alice := persons.MustAdd(s, &Person{Name: "Alice", Age: 30})
	o2 := orders.MustAdd(s, &Order{Key: 2, Customer: alice})
	got, err := orders.Get(s, o2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := persons.Get(s, got.Customer)
	if err != nil || p.Name != "Alice" {
		t.Fatalf("late-bound ref round-trip: %+v, %v", p, err)
	}
	if g1, _ := orders.Get(s, o1); !g1.Customer.IsNil() {
		t.Fatal("pre-binding order's customer should stay nil")
	}
	// FieldRef works after binding.
	fr := orders.FieldRefByName("Customer")
	if fr.Target == nil {
		t.Fatal("FieldRef target not bound")
	}
}

func TestFieldRefUnboundPanics(t *testing.T) {
	rt := testRuntime(t)
	orders, err := NewCollection[Order](rt, "orders", RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound FieldRef")
		}
	}()
	orders.FieldRefByName("Customer")
}

func TestNonTabularRejected(t *testing.T) {
	type Bad struct{ P *int32 }
	rt := testRuntime(t)
	if _, err := NewCollection[Bad](rt, "bad", RowIndirect); err == nil {
		t.Fatal("expected tabular validation error")
	}
}

func TestForEachAndRefOf(t *testing.T) {
	for _, layout := range []Layout{RowIndirect, RowDirect, Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			persons := MustCollection[Person](rt, "persons", layout)
			for i := 0; i < 300; i++ {
				persons.MustAdd(s, &Person{Name: fmt.Sprintf("p%03d", i), Age: int32(i)})
			}
			var sum int64
			var refs []Ref[Person]
			persons.ForEach(s, func(r Ref[Person], p *Person) bool {
				sum += int64(p.Age)
				refs = append(refs, r)
				return true
			})
			if want := int64(299 * 300 / 2); sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
			if len(refs) != 300 {
				t.Fatalf("refs = %d", len(refs))
			}
			// Every enumerated ref must dereference.
			for _, r := range refs {
				if _, err := persons.Get(s, r); err != nil {
					t.Fatal(err)
				}
			}
			// Early stop.
			n := 0
			persons.ForEach(s, func(Ref[Person], *Person) bool {
				n++
				return n < 10
			})
			if n != 10 {
				t.Fatalf("early stop visited %d", n)
			}
		})
	}
}

func TestRefsSurviveCompaction(t *testing.T) {
	for _, layout := range []Layout{RowIndirect, RowDirect, Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			persons := MustCollection[Person](rt, "persons", layout)
			var refs []Ref[Person]
			const n = 2000
			for i := 0; i < n; i++ {
				refs = append(refs, persons.MustAdd(s, &Person{Name: fmt.Sprintf("p%d", i), Age: int32(i % 128)}))
			}
			// Remove 90%, compact, verify the rest.
			for i, r := range refs {
				if i%10 != 0 {
					if err := persons.Remove(s, r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := rt.CompactNow(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 10 {
				p, err := persons.Get(s, refs[i])
				if err != nil {
					t.Fatalf("ref %d after compaction: %v", i, err)
				}
				if p.Name != fmt.Sprintf("p%d", i) {
					t.Fatalf("ref %d resolved to %q", i, p.Name)
				}
			}
		})
	}
}

// TestDirectJoinAfterCompaction covers the §6 pipeline end-to-end at the
// collection level: orders hold direct pointers to persons; persons are
// compacted; the join field must still resolve (fix-up or tombstone
// chase) and reads must return the exact person.
func TestDirectJoinAfterCompaction(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	persons := MustCollection[Person](rt, "persons", RowDirect)
	orders := MustCollection[Order](rt, "orders", RowDirect)

	const n = 3000
	prefs := make([]Ref[Person], 0, n)
	for i := 0; i < n; i++ {
		prefs = append(prefs, persons.MustAdd(s, &Person{Name: fmt.Sprintf("c%d", i), Age: int32(i % 100)}))
	}
	var orefs []Ref[Order]
	var wantAge []int32
	for i := 0; i < n; i += 10 {
		orefs = append(orefs, orders.MustAdd(s, &Order{Key: int64(i), Customer: prefs[i]}))
		wantAge = append(wantAge, int32(i%100))
	}
	for i, r := range prefs {
		if i%10 != 0 {
			if err := persons.Remove(s, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved, err := rt.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compaction did not move anything; test vacuous")
	}
	fr := orders.FieldRefByName("Customer")
	ageF := persons.Schema().MustField("Age")
	s.Enter()
	for i, or := range orefs {
		oobj, err := orders.Deref(s, or)
		if err != nil {
			t.Fatal(err)
		}
		pobj, err := fr.Deref(s, oobj)
		if err != nil {
			t.Fatalf("order %d join after compaction: %v", i, err)
		}
		if age := *(*int32)(pobj.Field(ageF)); age != wantAge[i] {
			t.Fatalf("order %d joined age %d, want %d", i, age, wantAge[i])
		}
	}
	s.Exit()
}

func TestGetRefFieldEncodings(t *testing.T) {
	// An indirect-layout collection referencing a direct-layout one must
	// round-trip its ref field through the direct encoding.
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	persons := MustCollection[Person](rt, "persons", RowDirect)
	orders := MustCollection[Order](rt, "orders", RowIndirect)
	p := persons.MustAdd(s, &Person{Name: "Zed", Age: 1})
	o := orders.MustAdd(s, &Order{Key: 7, Customer: p})
	got, err := orders.Get(s, o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := persons.Get(s, got.Customer)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Zed" {
		t.Fatalf("round-trip = %+v", back)
	}
	// Nil ref round-trips as nil.
	o2 := orders.MustAdd(s, &Order{Key: 8})
	got2, _ := orders.Get(s, o2)
	if !got2.Customer.IsNil() {
		t.Fatal("nil ref did not round-trip")
	}
}

var _ = mem.RowIndirect // referenced to keep import in smaller builds
