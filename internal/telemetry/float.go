package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// JSONFloat is a float64 whose JSON encoding survives IEEE specials: ±Inf
// and NaN encode as the strings "+Inf", "-Inf" and "NaN" instead of failing
// encoding/json. Decision-ledger cost vectors (fault-priced-out policies are
// +Inf) and SLO alert values both carry them.
type JSONFloat float64

// MarshalJSON encodes ±Inf/NaN as strings.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	return f.appendJSON(nil), nil
}

// appendJSON appends MarshalJSON's encoding of f to b.
func (f JSONFloat) appendJSON(b []byte) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	b, _ = appendJSONFloat(b, v)
	return b
}

// UnmarshalJSON inverts MarshalJSON.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		case "NaN":
			*f = JSONFloat(math.NaN())
		default:
			return fmt.Errorf("telemetry: bad float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// FormatFloat renders a float the way the Prometheus exposition does:
// shortest round-trip form, with the infinities spelled +Inf and -Inf. The
// golden TSV exports use it too, so their diff semantics match.
func FormatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
