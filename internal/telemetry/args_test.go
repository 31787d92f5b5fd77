package telemetry

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzArgsUnmarshalJSON: decoding args into Args fails exactly when
// decoding them into a map does, holds the map's keys in ascending order,
// and every getter reads each key as the map value reads to the
// critical-path analyzer (numbers truncate to ints, lists keep their
// numeric elements).
func FuzzArgsUnmarshalJSON(f *testing.F) {
	for _, s := range []string{
		`{"bytes":4194304,"group":4,"reqs":[3,4,9],"scheme":"ring","steps":2}`,
		`{"bytes":1,"costs":{"hetero@s1":"+Inf","ring":0.125},"stalled":false,"reqs":[]}`,
		`{"id":7,"input":512,"output":128,"trace_id":"p1-r7"}`,
		`{"duration":0.5,"edge":3,"factor":0.25}`,
		`{ "b" : 1 , "a" : [1.5, "x", -2, 1e3, null] , "a" : [0, -0, 01] }`,
		`{"kéy":"v\"\\ ","\xff":"\xfe","n":null,"o":{"x":[{}]},"big":[12345678901234567890],"t":true}`,
		`{"r":[-9223372036854775808,9223372036854775807]}`,
		`{"n":1e999}`, `null`, `[1]`, `"x"`, `{"a":}`, `{}`, ` {"s":"x"} `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]any
		merr := json.Unmarshal(data, &m)
		var a Args
		aerr := json.Unmarshal(data, &a)
		if (merr == nil) != (aerr == nil) {
			t.Fatalf("map decode error %v, Args decode error %v", merr, aerr)
		}
		if merr != nil {
			return
		}
		if len(a) != len(m) {
			t.Fatalf("%d args, %d map keys", len(a), len(m))
		}
		for i := range a {
			if i > 0 && a[i-1].Key >= a[i].Key {
				t.Fatalf("keys out of order: %q then %q", a[i-1].Key, a[i].Key)
			}
		}
		for k, v := range m {
			s, sok := a.Str(k)
			if ws, ok := v.(string); ok != sok || s != ws {
				t.Errorf("Str(%q) = %q, %v; map holds %#v", k, s, sok, v)
			}
			f, fok := a.Float(k)
			n, nok := a.Int(k)
			if wf, ok := v.(float64); ok != fok || ok != nok || ok && (f != wf || n != int(wf)) {
				t.Errorf("Float/Int(%q) = %v, %v / %v, %v; map holds %#v", k, f, fok, n, nok, v)
			}
			var want []int
			if elems, ok := v.([]any); ok {
				for _, e := range elems {
					if x, ok := e.(float64); ok {
						want = append(want, int(x))
					}
				}
			}
			if got := a.Ints(k); !slices.Equal(got, want) {
				t.Errorf("Ints(%q) = %v, want %v from %#v", k, got, want, v)
			}
		}
	})
}
