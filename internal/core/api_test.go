package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/types"
)

func TestCollectionAccessors(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	persons := MustCollection[Person](rt, "persons", RowDirect)
	if persons.Name() != "persons" {
		t.Fatalf("Name = %q", persons.Name())
	}
	if persons.LayoutKind() != RowDirect {
		t.Fatalf("LayoutKind = %v", persons.LayoutKind())
	}
	if persons.Context() == nil || persons.Context().Schema() != persons.Schema() {
		t.Fatal("Context not wired")
	}
	if persons.Schema().Name != "Person" {
		t.Fatalf("Schema = %q", persons.Schema().Name)
	}
	persons.MustAdd(s, &Person{Name: "x", Age: 1})
	if persons.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", persons.MemoryBytes())
	}
	if rt.Manager() == nil {
		t.Fatal("Manager nil")
	}
}

func TestEnumerateAndRefOf(t *testing.T) {
	for _, layout := range []Layout{RowIndirect, RowDirect, Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			persons := MustCollection[Person](rt, "persons", layout)
			const n = 500
			for i := 0; i < n; i++ {
				persons.MustAdd(s, &Person{Name: fmt.Sprintf("p%d", i), Age: int32(i % 90)})
			}
			// Compiled-query style block walk through the public API.
			seen := 0
			s.Enter()
			en := persons.Enumerate(s)
			for {
				blk, ok := en.NextBlock()
				if !ok {
					break
				}
				for i := 0; i < blk.Capacity(); i++ {
					if !blk.SlotIsValid(i) {
						continue
					}
					seen++
					r := persons.refOf(blk, i)
					if r.IsNil() {
						t.Fatal("refOf returned nil for a valid slot")
					}
				}
			}
			en.Close()
			s.Exit()
			if seen != n {
				t.Fatalf("enumerated %d, want %d", seen, n)
			}
		})
	}
}

func TestSetCoalescedCopyEquivalence(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	persons := MustCollection[Person](rt, "persons", RowIndirect)
	orders := MustCollection[Order](rt, "orders", RowIndirect)

	p := persons.MustAdd(s, &Person{Name: "Ada", Age: 36})
	in := Order{Key: 9, Total: decimal.MustParse("12.34"), Date: types.MustDate("1994-06-01"), Customer: p}

	orders.SetCoalescedCopy(false)
	rFieldwise := orders.MustAdd(s, &in)
	orders.SetCoalescedCopy(true)
	rCoalesced := orders.MustAdd(s, &in)

	a, err := orders.Get(s, rFieldwise)
	if err != nil {
		t.Fatal(err)
	}
	b, err := orders.Get(s, rCoalesced)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fieldwise %+v != coalesced %+v", a, b)
	}
	// Columnar collections ignore the switch.
	colPersons := MustCollection[Person](rt, "colPersons", Columnar)
	colPersons.SetCoalescedCopy(false)
	cp := colPersons.MustAdd(s, &Person{Name: "c", Age: 3})
	if got, err := colPersons.Get(s, cp); err != nil || got.Age != 3 {
		t.Fatalf("columnar after switch: %+v, %v", got, err)
	}
}

// TestMarshalRoundTripQuick drives random values through marshal and
// unmarshal in every layout: strings of any content, decimal extremes,
// negative and boundary integers.
func TestMarshalRoundTripQuick(t *testing.T) {
	type Everything struct {
		B    bool
		I32  int32
		I64  int64
		F64  float64
		D    types.Date
		Dec  decimal.Dec128
		Str  string
		Str2 string
	}
	for _, layout := range []Layout{RowIndirect, RowDirect, Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			coll := MustCollection[Everything](rt, "everything-"+layout.String(), layout)
			f := func(b bool, i32 int32, i64 int64, f64 float64, day int32, units int64, str, str2 string) bool {
				if len(str) > types.MaxStringLen || len(str2) > types.MaxStringLen {
					return true // string heap rejects oversized input by contract
				}
				in := Everything{
					B: b, I32: i32, I64: i64, F64: f64,
					D:   types.Date(day % 200000),
					Dec: decimal.FromUnits(units),
					Str: str, Str2: str2,
				}
				r, err := coll.Add(s, &in)
				if err != nil {
					return false
				}
				out, err := coll.Get(s, r)
				if err != nil {
					return false
				}
				if f64 != f64 { // NaN: compare remaining fields only
					out.F64, in.F64 = 0, 0
				}
				return out == in
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAmbiguousRefTargetRejected(t *testing.T) {
	rt := testRuntime(t)
	MustCollection[Person](rt, "persons-a", RowIndirect)
	MustCollection[Person](rt, "persons-b", RowIndirect)
	if _, err := NewCollection[Order](rt, "orders", RowIndirect); err == nil {
		t.Fatal("ambiguous ref target should be rejected")
	}
}

// TestMaintainerConcurrentChurn is the integration smoke test: several
// sessions churn two linked collections while the Maintainer (compaction
// and the §3.1 rescue check) runs; every surviving reference must resolve
// to its exact object afterwards.
func TestMaintainerConcurrentChurn(t *testing.T) {
	rt := testRuntime(t)
	stopC := rt.StartMaintainer(mem.MaintainerConfig{Interval: 2 * time.Millisecond}).Stop
	defer stopC()

	persons := MustCollection[Person](rt, "persons", RowDirect)
	orders := MustCollection[Order](rt, "orders", RowIndirect)

	const workers = 3
	const perWorker = 800
	type kept struct {
		or  Ref[Order]
		key int64
		age int32
	}
	keptCh := make(chan []kept, workers)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := rt.MustSession()
			defer s.Close()
			var mine []kept
			for i := 0; i < perWorker; i++ {
				key := int64(w*1_000_000 + i)
				p, err := persons.Add(s, &Person{Name: fmt.Sprintf("p%d", key), Age: int32(i % 100)})
				if err != nil {
					errCh <- err
					return
				}
				o, err := orders.Add(s, &Order{Key: key, Customer: p})
				if err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					// Keep this one.
					mine = append(mine, kept{or: o, key: key, age: int32(i % 100)})
				} else {
					if err := persons.Remove(s, p); err != nil {
						errCh <- fmt.Errorf("remove person: %w", err)
						return
					}
					if err := orders.Remove(s, o); err != nil {
						errCh <- fmt.Errorf("remove order: %w", err)
						return
					}
				}
			}
			keptCh <- mine
		}(w)
	}
	wg.Wait()
	close(errCh)
	close(keptCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s := rt.MustSession()
	defer s.Close()
	fr := orders.FieldRefByName("Customer")
	ageF := persons.Schema().MustField("Age")
	for all := range keptCh {
		for _, k := range all {
			got, err := orders.Get(s, k.or)
			if err != nil {
				t.Fatalf("kept order %d: %v", k.key, err)
			}
			if got.Key != k.key {
				t.Fatalf("order %d resolved to key %d", k.key, got.Key)
			}
			s.Enter()
			oobj, err := orders.Deref(s, k.or)
			if err != nil {
				t.Fatal(err)
			}
			pobj, err := fr.Deref(s, oobj)
			if err != nil {
				t.Fatalf("order %d -> customer: %v", k.key, err)
			}
			if age := *(*int32)(pobj.Field(ageF)); age != k.age {
				t.Fatalf("order %d joined age %d, want %d", k.key, age, k.age)
			}
			s.Exit()
		}
	}
}

func TestRefTargetTypeReflection(t *testing.T) {
	var r Ref[Person]
	if r.RefTargetType() != reflect.TypeOf(Person{}) {
		t.Fatal("RefTargetType mismatch")
	}
}
