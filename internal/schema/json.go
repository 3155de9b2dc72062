package schema

// JSON-schema derivation: the serve layer registers each parameterized
// query's request and response as plain Go structs, and this file
// reflects them into JSON Schema documents — the same "derive the wire
// contract from the Go type, fail fast at registration" move the tabular
// Schema makes for off-heap layouts, applied to the HTTP surface. The
// derived documents are served from /queries so clients can discover
// parameter names, types and formats without reading Go source.
//
// The mapping is deliberately small: the wire types the front door needs
// are bools, integers, floats, strings, types.Date (string, format
// "date"), decimal.Dec128 (string, format "decimal" — decimals never
// travel as JSON numbers), nested structs, and slices of any of those.
// Field names honor `json:"..."` tags, including "-" and ",omitempty".
//
// The same walk compiles the type's append encoder (Compile, encode.go):
// whatever the deriver accepts, the server can also write without
// reflection, byte-identical to compact encoding/json. Types whose
// encoding/json bytes the encoder could not reproduce ([]byte, types
// with their own marshal methods, `,string` tags) are therefore rejected
// here, at registration.

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"unicode"
	"unsafe"

	"repro/internal/types"
)

// JSONSchema is a minimal JSON Schema (draft-07 subset) document.
type JSONSchema struct {
	Type string `json:"type"`
	// Format refines string types: "date" (YYYY-MM-DD) and "decimal"
	// (fixed-point literal, four fractional digits).
	Format string `json:"format,omitempty"`
	// Properties and Required describe object types.
	Properties map[string]*JSONSchema `json:"properties,omitempty"`
	Required   []string               `json:"required,omitempty"`
	// Items describes array element types.
	Items *JSONSchema `json:"items,omitempty"`
}

// JSONOf derives the JSON Schema for a Go type used on the HTTP wire.
func JSONOf(t reflect.Type) (*JSONSchema, error) {
	w, err := wireOf(t, make(map[reflect.Type]bool))
	if err != nil {
		return nil, err
	}
	return w.schema, nil
}

// MustJSONOf is JSONOf, panicking on error. Endpoint registration uses
// it so an unservable request/response type fails at construction, not
// on the first request.
func MustJSONOf(t reflect.Type) *JSONSchema {
	s, err := JSONOf(t)
	if err != nil {
		panic(err)
	}
	return s
}

// wire is what one walk of a wire type yields: the schema that
// describes it and the compiled encoder that writes it (encode.go), so
// a type the walk accepts has both and the two cannot disagree.
type wire struct {
	schema *JSONSchema
	enc    encFn
	// empty reports encoding/json's omitempty emptiness of the value at
	// p; nil for types that are never empty (structs).
	empty func(p unsafe.Pointer) bool
}

func leaf[T comparable](typ string, enc encFn) (*wire, error) {
	return &wire{schema: &JSONSchema{Type: typ}, enc: enc, empty: isZero[T]}, nil
}

func wireOf(t reflect.Type, seen map[reflect.Type]bool) (*wire, error) {
	switch t {
	case dec128Type:
		return &wire{schema: &JSONSchema{Type: "string", Format: "decimal"}, enc: encDec128}, nil
	case dateType:
		return &wire{schema: &JSONSchema{Type: "string", Format: "date"}, enc: encDate, empty: isZero[types.Date]}, nil
	}
	// encoding/json hands such types to their own methods (and writes a
	// json.Number unquoted), bytes the compiled encoder cannot know.
	if t.Kind() != reflect.Pointer && (marshals(t) || marshals(reflect.PointerTo(t))) || t == jsonNumberType {
		return nil, fmt.Errorf("schema: %v marshals itself and cannot travel on the wire", t)
	}
	switch t.Kind() {
	case reflect.Bool:
		return leaf[bool]("boolean", encBool)
	case reflect.Int:
		return leaf[int]("integer", encInt[int])
	case reflect.Int8:
		return leaf[int8]("integer", encInt[int8])
	case reflect.Int16:
		return leaf[int16]("integer", encInt[int16])
	case reflect.Int32:
		return leaf[int32]("integer", encInt[int32])
	case reflect.Int64:
		return leaf[int64]("integer", encInt[int64])
	case reflect.Uint:
		return leaf[uint]("integer", encUint[uint])
	case reflect.Uint8:
		return leaf[uint8]("integer", encUint[uint8])
	case reflect.Uint16:
		return leaf[uint16]("integer", encUint[uint16])
	case reflect.Uint32:
		return leaf[uint32]("integer", encUint[uint32])
	case reflect.Uint64:
		return leaf[uint64]("integer", encUint[uint64])
	case reflect.Float32:
		return leaf[float32]("number", encFloat32)
	case reflect.Float64:
		return leaf[float64]("number", encFloat64)
	case reflect.String:
		return leaf[string]("string", encString)
	case reflect.Pointer:
		// Pointers model wire optionality (encoding/json emits null or
		// the value); the schema is the pointee's. The seen set still
		// catches recursion through pointer fields.
		el, err := wireOf(t.Elem(), seen)
		if err != nil {
			return nil, err
		}
		return &wire{schema: el.schema, enc: encPointer(el.enc), empty: isZero[unsafe.Pointer]}, nil
	case reflect.Slice, reflect.Array:
		if t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("schema: %v travels as base64 in encoding/json and cannot travel on the wire", t)
		}
		el, err := wireOf(t.Elem(), seen)
		if err != nil {
			return nil, err
		}
		w := &wire{schema: &JSONSchema{Type: "array", Items: el.schema}}
		if t.Kind() == reflect.Slice {
			w.enc, w.empty = encSlice(el.enc, t.Elem().Size()), sliceEmpty
		} else {
			n := t.Len()
			w.enc, w.empty = encArray(el.enc, t.Elem().Size(), n), func(unsafe.Pointer) bool { return n == 0 }
		}
		return w, nil
	case reflect.Struct:
		if seen[t] {
			return nil, fmt.Errorf("schema: recursive type %v cannot be a wire schema", t)
		}
		seen[t] = true
		defer delete(seen, t)
		obj := &JSONSchema{Type: "object", Properties: map[string]*JSONSchema{}}
		var fields []fieldEnc
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() || sf.Anonymous {
				return nil, fmt.Errorf("schema: %v.%s: wire types must have exported, non-embedded fields", t, sf.Name)
			}
			name, optional, skip, err := jsonFieldName(sf)
			if err != nil {
				return nil, fmt.Errorf("schema: %v.%s: %w", t, sf.Name, err)
			}
			if skip {
				continue
			}
			if obj.Properties[name] != nil {
				return nil, fmt.Errorf("schema: %v.%s: duplicate wire name %q", t, sf.Name, name)
			}
			fw, err := wireOf(sf.Type, seen)
			if err != nil {
				return nil, fmt.Errorf("%v.%s: %w", t, sf.Name, err)
			}
			obj.Properties[name] = fw.schema
			f := fieldEnc{key: string(appendString(nil, name)) + ":", off: sf.Offset, enc: fw.enc}
			if optional {
				f.empty = fw.empty
			} else {
				obj.Required = append(obj.Required, name)
			}
			fields = append(fields, f)
		}
		return &wire{schema: obj, enc: encStruct(fields)}, nil
	default:
		return nil, fmt.Errorf("schema: %v cannot travel on the wire", t)
	}
}

var (
	jsonMarshalerType = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	jsonNumberType    = reflect.TypeFor[json.Number]()
)

func marshals(t reflect.Type) bool {
	return t.Implements(jsonMarshalerType) || t.Implements(textMarshalerType)
}

// jsonFieldName resolves a struct field's wire name the way
// encoding/json does: `json:"name,omitempty"` tags win, "-" drops the
// field, omitempty marks it optional (absent from Required). Tags
// encoding/json would honour differently from the compiled encoder — a
// name it would discard as invalid, the "string" and "omitzero" options
// — are errors, not silent divergence.
func jsonFieldName(sf reflect.StructField) (name string, optional, skip bool, err error) {
	name = sf.Name
	tag, ok := sf.Tag.Lookup("json")
	if !ok {
		return name, false, false, nil
	}
	if tag == "-" {
		return "", false, true, nil
	}
	parts := strings.Split(tag, ",")
	if parts[0] != "" {
		name = parts[0]
		if !validWireName(name) {
			return "", false, false, fmt.Errorf("json tag name %q is not one encoding/json accepts", name)
		}
	}
	for _, p := range parts[1:] {
		switch p {
		case "omitempty":
			optional = true
		case "":
		default:
			return "", false, false, fmt.Errorf("json tag option %q is not supported on the wire", p)
		}
	}
	return name, optional, false, nil
}

// validWireName is encoding/json's isValidTag: the names it takes from
// a tag rather than falling back to the Go field name.
func validWireName(s string) bool {
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return s != ""
}
