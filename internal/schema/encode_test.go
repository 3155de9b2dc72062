package schema_test

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/decimal"
	"repro/internal/schema"
	"repro/internal/types"
)

type inner struct {
	ID   int32      `json:"id"`
	When types.Date `json:"when,omitempty"`
}

// everyKind has a field of each kind the wire walk accepts, once plain
// and once omitempty, so one value exercises every compiled node.
type everyKind struct {
	B    bool
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	F32  float32
	F64  float64
	S    string `json:"s<&>"`
	D    types.Date
	M    decimal.Dec128
	In   inner
	P    *inner
	PS   *string
	L    []inner
	LS   []string
	LL   [][]int
	A    [2]uint8
	A0   [0]int
	Skip int `json:"-"`
	Dash int `json:"-,"`

	OB   bool           `json:",omitempty"`
	OI   int            `json:"oi,omitempty"`
	OU8  uint8          `json:",omitempty"`
	OF   float64        `json:",omitempty"`
	OS   string         `json:",omitempty"`
	OD   types.Date     `json:",omitempty"`
	OM   decimal.Dec128 `json:",omitempty"` // a struct: never empty
	OIn  inner          `json:",omitempty"`
	OP   *inner         `json:",omitempty"`
	OL   []inner        `json:",omitempty"`
	OA   [2]uint8       `json:",omitempty"`
	OA0  [0]int         `json:",omitempty"`
	Last string         `json:",omitempty"`
}

type allOmitted struct {
	A int    `json:",omitempty"`
	B string `json:",omitempty"`
}

// sameAsEncodingJSON compiles T and holds each value to json.Marshal's
// bytes, appended after what dst already held.
func sameAsEncodingJSON[T any](t *testing.T, vals ...T) {
	t.Helper()
	_, enc, err := schema.Compile[T]()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		want, err := json.Marshal(&vals[i])
		if err != nil {
			t.Fatalf("value %d: encoding/json: %v", i, err)
		}
		if got := string(enc([]byte("x"), &vals[i])); got != "x"+string(want) {
			t.Errorf("value %d:\n got %s\nwant x%s", i, got, want)
		}
	}
}

func TestCompileMatchesEncodingJSON(t *testing.T) {
	str := "p\"s"
	full := everyKind{
		B: true, I: math.MinInt, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MinInt64,
		U: math.MaxUint, U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
		F32: 1e-7, F64: -1e21,
		S:    "q\"b\\ lt< gt> amp& nul\x00 bs\b ff\f nl\n cr\r tab\t esc\x1b del\x7f bad\xff\xc0 trunc\xe2\x80 ls\u2028 ps\u2029 ok\u00e9\U0001F600",
		D:    types.MakeDate(1994, 1, 1),
		M:    decimal.Dec128{Lo: 0, Hi: math.MinInt64},
		In:   inner{ID: -7},
		P:    &inner{ID: 1, When: 1},
		PS:   &str,
		L:    []inner{{ID: 1}, {ID: 2, When: -1}},
		LS:   []string{"", "<"},
		LL:   [][]int{nil, {}, {1, 2}},
		A:    [2]uint8{1, 255},
		Skip: 1, Dash: 2,
		OB: true, OI: -1, OU8: 1, OF: math.Copysign(0, -1), OS: "x", OD: 1,
		OM: decimal.FromUnits(-1), OIn: inner{}, OP: &inner{}, OL: []inner{{}}, OA: [2]uint8{0, 0},
		Last: "z",
	}
	sameAsEncodingJSON(t, everyKind{}, full, everyKind{L: []inner{}, LS: []string{}, OL: []inner{}})
	sameAsEncodingJSON(t, allOmitted{}, allOmitted{B: "b"}, allOmitted{A: 1, B: "b"})
	sameAsEncodingJSON(t, []string(nil), []string{}, []string{"a"})
	sameAsEncodingJSON[*inner](t, nil, &inner{ID: 3})

	// The float forms and cutoffs, both widths.
	sameAsEncodingJSON(t, 0.0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e-9, 1e-10, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1+0.2, 123456789.125)
	sameAsEncodingJSON[float32](t, 0, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 3.4e38, math.SmallestNonzeroFloat32, 0.1, 16777216)
}

// TestCompileNonFiniteFloats pins the one value class without reference
// bytes: encoding/json errors, the append encoder writes null.
func TestCompileNonFiniteFloats(t *testing.T) {
	_, enc, err := schema.Compile[[]float64]()
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1}
	if _, err := json.Marshal(v); err == nil {
		t.Fatal("encoding/json now encodes non-finite floats: compare bytes instead")
	}
	if got := string(enc(nil, &v)); got != "[null,null,null,1]" {
		t.Errorf("non-finite floats = %s", got)
	}
}

// TestCompileRejects pins the refusals added for the encoder: types
// whose encoding/json bytes it could not reproduce fail the walk — and
// with it JSONOf — at registration.
func TestCompileRejects(t *testing.T) {
	reject := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
	_, _, err := schema.Compile[struct{ B []byte }]()
	reject("[]byte (base64 in encoding/json)", err)
	_, _, err = schema.Compile[struct{ T time.Time }]()
	reject("a json.Marshaler / TextMarshaler", err)
	_, _, err = schema.Compile[struct{ N json.Number }]()
	reject("json.Number", err)
	_, _, err = schema.Compile[struct {
		N int `json:"n,string"`
	}]()
	reject("the string tag option", err)
	_, _, err = schema.Compile[struct {
		N int `json:"n,omitzero"`
	}]()
	reject("the omitzero tag option", err)
	_, _, err = schema.Compile[struct {
		N int `json:"a\"b"`
	}]()
	reject("a tag name encoding/json discards", err)
	_, _, err = schema.Compile[struct {
		N int
		M int `json:"N"`
	}]()
	reject("duplicate wire names", err)
	_, _, err = schema.Compile[map[string]int]()
	reject("a map", err)
	_, _, err = schema.Compile[struct{ V any }]()
	reject("an interface", err)
}
