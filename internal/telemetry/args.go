package telemetry

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Args is a trace event's argument list, written as one JSON object with
// the keys in the order given. Emitters list the keys in ascending byte
// order, the order encoding/json gives a map's keys, and never repeat one;
// that keeps every span byte what a map would have encoded, with no map, no
// sort and no boxing on the hot path.
//
// An emitter may reuse one Args buffer (and the slices and columns it points
// to) across events: an event and its Args are valid only during the
// Tracer call that records it, so a tap copies what it keeps.
type Args []Arg

// Arg is one typed argument. Build it with Str, Int, Int64, Num, Float,
// Bool, Ints or Col.
type Arg struct {
	Key  string
	kind argKind
	s    string       // kindString
	i    int64        // kindInt; kindBool as 0 or 1
	f    float64      // kindNum, kindFloat
	ints []int        // kindInts
	col  *FloatColumn // kindColumn
	v    any          // kindDecoded
}

type argKind uint8

const (
	kindNull argKind = iota // the zero Arg
	kindString
	kindInt
	kindNum   // float64; NaN and ±Inf fail to encode, as in encoding/json
	kindFloat // float64 under Float's rule: ±Inf and NaN become strings
	kindBool
	kindInts
	kindColumn
	kindDecoded // a decoded null, array or object, as encoding/json decodes it into an any
)

// Str is a string argument.
func Str(key, v string) Arg { return Arg{Key: key, kind: kindString, s: v} }

// Int is an integer argument.
func Int(key string, v int) Arg { return Arg{Key: key, kind: kindInt, i: int64(v)} }

// Int64 is an integer argument.
func Int64(key string, v int64) Arg { return Arg{Key: key, kind: kindInt, i: v} }

// Num is a float argument that, like a float64 under encoding/json, fails
// the event's encoding if it is NaN or infinite.
func Num(key string, v float64) Arg { return Arg{Key: key, kind: kindNum, f: v} }

// Float is a float argument that survives IEEE specials: encoding/json
// rejects Inf/NaN, which policy-cost tables legitimately contain
// (Inf-priced faulted paths), so those encode as the strings "+Inf", "-Inf"
// and "NaN".
func Float(key string, v float64) Arg { return Arg{Key: key, kind: kindFloat, f: v} }

// Bool is a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: kindBool}
	if v {
		a.i = 1
	}
	return a
}

// Ints is an integer-list argument; a nil v encodes as null. The slice is
// not copied.
func Ints(key string, v []int) Arg { return Arg{Key: key, kind: kindInts, ints: v} }

// Col is a float-column argument, encoded as a JSON object (see
// FloatColumn). The column is not copied.
func Col(key string, c *FloatColumn) Arg { return Arg{Key: key, kind: kindColumn, col: c} }

// FloatColumn is a JSON object of floats keyed by label: Values[i] belongs
// to the column's i-th label, and the labels are written in ascending
// order, the order encoding/json gives a map's keys. Values encode under
// Float's rule. An emitter builds one per label set and points Values at
// the current figures before each event.
type FloatColumn struct {
	Values []float64
	labels []string
	order  []int // label indices in ascending label order
}

// NewFloatColumn returns a column over labels, which must be unique, with
// their order sorted once.
func NewFloatColumn(labels []string) *FloatColumn {
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(labels[a], labels[b]) })
	return &FloatColumn{labels: labels, order: order}
}

// find returns the first argument named key, or nil.
func (a Args) find(key string) *Arg {
	for i := range a {
		if a[i].Key == key {
			return &a[i]
		}
	}
	return nil
}

// Str returns the string argument named key.
func (a Args) Str(key string) (string, bool) {
	if x := a.find(key); x != nil && x.kind == kindString {
		return x.s, true
	}
	return "", false
}

// Int returns the numeric argument named key, truncated to an int (a span
// file decodes every number as a float).
func (a Args) Int(key string) (int, bool) {
	x := a.find(key)
	if x == nil {
		return 0, false
	}
	switch x.kind {
	case kindInt:
		return int(x.i), true
	case kindNum:
		return int(x.f), true
	case kindFloat:
		if isFinite(x.f) {
			return int(x.f), true
		}
	}
	return 0, false
}

// Float returns the numeric argument named key as a float64. A Float
// argument holding Inf or NaN reads as absent: it is a string on the wire.
func (a Args) Float(key string) (float64, bool) {
	x := a.find(key)
	if x == nil {
		return 0, false
	}
	switch x.kind {
	case kindInt:
		return float64(x.i), true
	case kindNum:
		return x.f, true
	case kindFloat:
		if isFinite(x.f) {
			return x.f, true
		}
	}
	return 0, false
}

// Ints returns the integer-list argument named key. A list decoded from a
// span file keeps its numeric elements, truncated, and drops the rest; a
// value that is no list reads as nil.
func (a Args) Ints(key string) []int {
	x := a.find(key)
	if x == nil {
		return nil
	}
	switch x.kind {
	case kindInts:
		return x.ints
	case kindDecoded:
		elems, _ := x.v.([]any)
		if len(elems) == 0 {
			return nil
		}
		out := make([]int, 0, len(elems))
		for _, e := range elems {
			if f, ok := e.(float64); ok {
				out = append(out, int(f))
			}
		}
		return out
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendArgs encodes a as a JSON object in its own key order. ok is false if
// a value cannot be encoded.
func appendArgs(b []byte, a Args) (_ []byte, ok bool) {
	b = append(b, '{')
	for i := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a[i].Key)
		b = append(b, ':')
		if b, ok = a[i].appendValue(b); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendValue encodes the argument's value. ok is false if it cannot be
// encoded.
func (x *Arg) appendValue(b []byte) (_ []byte, ok bool) {
	switch x.kind {
	case kindString:
		return appendJSONString(b, x.s), true
	case kindInt:
		return strconv.AppendInt(b, x.i, 10), true
	case kindNum:
		return appendJSONFloat(b, x.f)
	case kindFloat:
		return JSONFloat(x.f).appendJSON(b), true
	case kindBool:
		return strconv.AppendBool(b, x.i != 0), true
	case kindInts:
		if x.ints == nil {
			return append(b, "null"...), true
		}
		b = append(b, '[')
		for i, n := range x.ints {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		return append(b, ']'), true
	case kindColumn:
		c := x.col
		b = append(b, '{')
		for i, j := range c.order {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c.labels[j])
			b = append(b, ':')
			b = JSONFloat(c.Values[j]).appendJSON(b)
		}
		return append(b, '}'), true
	case kindDecoded:
		enc, err := json.Marshal(x.v)
		if err != nil {
			return b, false
		}
		return append(b, enc...), true
	}
	return append(b, "null"...), true
}

func safeFloatName(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return "NaN"
}

// MarshalJSON encodes a through a map and encoding/json, independently of
// the tracer's hand encoder, which the encoder tests compare against it.
func (a Args) MarshalJSON() ([]byte, error) {
	if a == nil {
		return []byte("null"), nil
	}
	m := make(map[string]any, len(a))
	for i := range a {
		m[a[i].Key] = a[i].value()
	}
	return json.Marshal(m)
}

// value is the argument as the encoding/json value it stands for.
func (x *Arg) value() any {
	switch x.kind {
	case kindString:
		return x.s
	case kindInt:
		return x.i
	case kindNum:
		return x.f
	case kindFloat:
		return safeFloat(x.f)
	case kindBool:
		return x.i != 0
	case kindInts:
		return x.ints
	case kindColumn:
		m := make(map[string]any, len(x.col.labels))
		for i, l := range x.col.labels {
			m[l] = safeFloat(x.col.Values[i])
		}
		return m
	case kindDecoded:
		return x.v
	}
	return nil
}

func safeFloat(f float64) any {
	if isFinite(f) {
		return f
	}
	return safeFloatName(f)
}

// UnmarshalJSON decodes a JSON object into arguments in ascending key
// order: strings, numbers (as Num) and booleans typed, and any other value
// as encoding/json decodes it into an any. A repeated key keeps its last
// value, as in a map.
func (a *Args) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(Args, 0, len(m))
	for k, v := range m {
		switch x := v.(type) {
		case string:
			out = append(out, Str(k, x))
		case float64:
			out = append(out, Num(k, x))
		case bool:
			out = append(out, Bool(k, x))
		default:
			out = append(out, Arg{Key: k, kind: kindDecoded, v: x})
		}
	}
	slices.SortFunc(out, func(x, y Arg) int { return strings.Compare(x.Key, y.Key) })
	*a = out
	return nil
}
