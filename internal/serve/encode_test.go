package serve_test

// The compiled result encoders against encoding/json, byte for byte,
// over every registered response type and over generated values: the
// deterministic differential test, the native fuzz target behind it
// (`make fuzz-smoke`), and the allocation pin for the row-stream hot
// loop. The Serve names put all of them under `make race-stress`.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/decimal"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// servedResults names, per registered query path, the driver result the
// endpoint encodes: *R for a buffered response, []R for a row batch.
var servedResults = map[string]reflect.Type{
	"/query/q1":            reflect.TypeFor[*serve.RowsResponse[tpch.Q1Row]](),
	"/query/q3":            reflect.TypeFor[*serve.RowsResponse[tpch.Q3Row]](),
	"/query/q6":            reflect.TypeFor[*serve.SumResponse](),
	"/query/q6window":      reflect.TypeFor[*serve.SumResponse](),
	"/query/q6window/rows": reflect.TypeFor[[]tpch.Q6WindowHit](),
	"/query/q10":           reflect.TypeFor[*serve.RowsResponse[tpch.Q10Row]](),
}

// wireKinds adds what the registered types lack (floats, pointers,
// omitempty, nesting) so the generator also drives those encoder nodes.
type wireKinds struct {
	B   bool
	I8  int8
	U16 uint16
	F32 float32
	F64 float64
	S   string `json:"s&"`
	P   *tpch.Q6WindowHit
	L   [][]string
	A   [2]types.Date
	OB  bool               `json:",omitempty"`
	OI  int64              `json:",omitempty"`
	OF  float64            `json:",omitempty"`
	OS  string             `json:",omitempty"`
	OD  types.Date         `json:",omitempty"`
	OM  decimal.Dec128     `json:",omitempty"`
	OP  *string            `json:",omitempty"`
	OL  []tpch.Q6WindowHit `json:",omitempty"`
}

// gen builds arbitrary values of a wire type from a byte string — the
// fuzzer's input, or seeded noise — biased toward the values encoders
// get wrong: integer extremes (which, through Dec128's two words, are
// the 128-bit extremes) and strings made of escapes, HTML characters,
// control bytes, invalid and truncated UTF-8, U+2028/9 and multi-byte
// runes.
type gen struct {
	data []byte
}

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) word() uint64 {
	switch g.byte() % 8 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64 // -1
	case 2:
		return 1 << 63 // MinInt64
	case 3:
		return 1<<63 - 1 // MaxInt64
	}
	var w [8]byte
	for i := range w {
		w[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

var stringParts = []string{
	`"`, `\`, "<", ">", "&", "/", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t",
	"\xff", "\xc0\xaf", "\xe2\x80", "\xed\xa0\x80", "\u2028", "\u2029", "\u00e9", "\ufffd", "\U0001F600", "a", " ", "0",
}

func (g *gen) string() string {
	var s []byte
	for n := g.byte() % 12; n > 0; n-- {
		if b := g.byte(); b < 128 {
			s = append(s, stringParts[int(b)%len(stringParts)]...)
		} else {
			s = append(s, b)
		}
	}
	return string(s)
}

func (g *gen) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(g.byte()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(g.word()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(g.word())
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(uint32(g.word()))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(g.word()))
	case reflect.String:
		v.SetString(g.string())
	case reflect.Pointer:
		if g.byte()&1 == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			g.fill(v.Elem())
		}
	case reflect.Slice:
		if n := int(g.byte() % 5); n > 0 { // 0 leaves nil; 1 is empty, not nil
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < n-1; i++ {
				g.fill(v.Index(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			g.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			g.fill(v.Field(i))
		}
	default:
		panic("gen: no generator for " + v.Type().String())
	}
}

// differ runs one generated value of every served result type through
// Server.AppendResult — the handlers' encode step — and one wireKinds
// through schema.Compile, and holds each to encoding/json's bytes.
type differ struct {
	srv   *serve.Server
	kinds schema.Encoder[wireKinds]
}

func newDiffer(t testing.TB) *differ {
	_, kinds, err := schema.Compile[wireKinds]()
	if err != nil {
		t.Fatal(err)
	}
	return &differ{srv: newEnv(t, 0.001, serve.Config{}).srv, kinds: kinds}
}

func (d *differ) check(t *testing.T, data []byte) {
	g := &gen{data: data}
	for _, path := range slices.Sorted(maps.Keys(servedResults)) {
		typ := servedResults[path]
		var result reflect.Value
		var want []byte
		if typ.Kind() == reflect.Pointer {
			result = reflect.New(typ.Elem())
			g.fill(result.Elem())
			want = append(mustMarshal(t, result.Interface()), '\n')
		} else {
			result = reflect.New(typ).Elem()
			g.fill(result)
			for i := 0; i < result.Len(); i++ {
				want = append(append(want, mustMarshal(t, result.Index(i).Interface())...), '\n')
			}
		}
		got, err := d.srv.AppendResult([]byte("x"), path, result.Interface())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%s: compiled encoder and encoding/json disagree\n got %q\nwant x%q", path, got, want)
		}
	}
	var k wireKinds
	g.fill(reflect.ValueOf(&k).Elem())
	if want, err := json.Marshal(&k); err == nil { // a non-finite float has no reference bytes
		if got := d.kinds(nil, &k); !bytes.Equal(got, want) {
			t.Fatalf("wireKinds: compiled encoder and encoding/json disagree\n got %q\nwant %q", got, want)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeEncodersMatchEncodingJSON is the differential test: every
// registered endpoint is in servedResults (a new one must join it), and
// a few thousand generated values of each encode identically.
func TestServeEncodersMatchEncodingJSON(t *testing.T) {
	d := newDiffer(t)
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/queries", nil))
	var reg struct {
		Queries []struct {
			Path string `json:"path"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Queries) != len(servedResults) {
		t.Fatalf("%d registered endpoints, %d in servedResults", len(reg.Queries), len(servedResults))
	}
	for _, q := range reg.Queries {
		if servedResults[q.Path] == nil {
			t.Fatalf("registered endpoint %s has no entry in servedResults", q.Path)
		}
	}

	rng := rand.New(rand.NewPCG(12, 2017))
	data := make([]byte, 2048)
	for i := 0; i < 2000; i++ {
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		d.check(t, data)
	}
	if _, err := d.srv.AppendResult(nil, "/query/q6", &serve.RowsResponse[tpch.Q1Row]{}); err == nil {
		t.Error("AppendResult took another endpoint's result type")
	}
	if _, err := d.srv.AppendResult(nil, "/query/q99", &serve.SumResponse{}); err == nil {
		t.Error("AppendResult took an unregistered path")
	}
}

// FuzzServeEncoders is the same check with the fuzzer choosing the bytes.
func FuzzServeEncoders(f *testing.F) {
	d := newDiffer(f)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 256)) // all-ones words: -1, and -0.0001 as a decimal
	f.Add(bytes.Repeat([]byte{2}, 256)) // MinInt64 words: the 128-bit minimum, the earliest date
	f.Add(bytes.Repeat([]byte{3}, 256)) // MaxInt64 words
	f.Add(bytes.Repeat([]byte{11, 16, 18, 20, 200, 4}, 64))
	f.Fuzz(func(t *testing.T, data []byte) { d.check(t, data) })
}

// TestServeEncodeRowsAllocFree pins the stream's hot loop: a 1 000-row
// block batch encodes into a sized buffer without a single allocation.
func TestServeEncodeRowsAllocFree(t *testing.T) {
	env := newEnv(t, 0.001, serve.Config{})
	srv := env.srv
	// AllocsPerRun counts the whole process's mallocs: the environment's
	// Maintainer ticking mid-measurement would be charged to the encoder.
	env.mt.Stop()
	rows := make([]tpch.Q6WindowHit, 1000)
	for i := range rows {
		rows[i] = tpch.Q6WindowHit{
			OrderKey: int64(i) * 7919,
			ShipDate: types.MakeDate(1992, 1, 1).AddDays(i),
			Revenue:  decimal.FromUnits(int64(i)*1234567 - 500),
		}
	}
	var batch any = rows // boxed once, as the rows are not part of the loop
	buf := make([]byte, 0, 128<<10)
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		out, err := srv.AppendResult(buf[:0], "/query/q6window/rows", batch)
		if err != nil {
			t.Fatal(err)
		}
		n = len(out)
	})
	if allocs != 0 {
		t.Errorf("encoding a 1000-row batch allocates %v times", allocs)
	}
	if n == 0 || n > cap(buf) {
		t.Fatalf("batch encoded to %d bytes; the buffer holds %d", n, cap(buf))
	}
}
