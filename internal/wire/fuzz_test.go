package wire

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// fuzzTypes is every message type with a golden case, in first-seen order;
// a fuzz input's kind byte picks one.
func fuzzTypes() []reflect.Type {
	var out []reflect.Type
	seen := map[reflect.Type]bool{}
	for _, tc := range goldenCases {
		if t := reflect.TypeOf(tc.msg).Elem(); !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// decodedSize sums the lengths of every slice and string reachable from v:
// what a decode materialized out of its input.
func decodedSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return decodedSize(v.Elem())
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		n := v.Len()
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				n += decodedSize(v.Index(i))
			}
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += decodedSize(v.Field(i))
		}
		return n
	}
	return 0
}

// FuzzWireBodies decodes arbitrary bytes as every request and response
// type, seeded from the golden encodings. A decode never panics and never
// holds more slice elements and string bytes than its input has bytes,
// whether or not it succeeds; a body that decodes cleanly re-encodes to
// bytes that decode to the same value.
func FuzzWireBodies(f *testing.F) {
	types := fuzzTypes()
	kind := map[reflect.Type]uint8{}
	for i, t := range types {
		kind[t] = uint8(i)
	}
	for _, tc := range goldenCases {
		b, err := hex.DecodeString(tc.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind[reflect.TypeOf(tc.msg).Elem()], b)
	}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		typ := types[int(k)%len(types)]
		decode := func(b []byte) (Message, error) {
			m := reflect.New(typ).Interface().(Message)
			r := NewReader(b)
			m.Decode(r)
			return m, r.Done()
		}
		m, err := decode(body)
		if n := decodedSize(reflect.ValueOf(m)); n > len(body) {
			t.Fatalf("%s decoded %d slice elements and string bytes from %d input bytes", typ.Name(), n, len(body))
		}
		if err != nil {
			return
		}
		var w Writer
		m.Encode(&w)
		if err := w.Err(); err != nil {
			t.Fatalf("%s decoded cleanly but does not re-encode: %v", typ.Name(), err)
		}
		again, err := decode(w.Bytes())
		if err != nil {
			t.Fatalf("%s re-encoding does not decode: %v", typ.Name(), err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%s re-encoding decodes to a different value:\n first: %+v\nsecond: %+v", typ.Name(), m, again)
		}
	})
}
