package telemetry_test

import (
	"encoding/json"
	"math"
	"testing"

	"heroserve/internal/telemetry"
)

// TestFloatJSONRoundTrip pins the JSONFloat wire format: "+Inf", "-Inf" and
// "NaN" as strings, finite values as plain numbers. The decisions and slo
// packages check the same format inside ledger records and alerts.
func TestFloatJSONRoundTrip(t *testing.T) {
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for _, c := range []struct {
		v    float64
		wire string
	}{
		{0, `0`}, {1.5, `1.5`}, {-2.25, `-2.25`},
		{math.Inf(1), `"+Inf"`}, {math.Inf(-1), `"-Inf"`}, {math.NaN(), `"NaN"`},
	} {
		b, err := json.Marshal(telemetry.JSONFloat(c.v))
		if err != nil || string(b) != c.wire {
			t.Fatalf("marshal %v = %s (%v), want %s", c.v, b, err, c.wire)
		}
		var got telemetry.JSONFloat
		if err := json.Unmarshal(b, &got); err != nil || !same(float64(got), c.v) {
			t.Errorf("%v round-tripped to %v via %s (%v)", c.v, float64(got), b, err)
		}
	}
	var f telemetry.JSONFloat
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("bad float string accepted")
	}
}
