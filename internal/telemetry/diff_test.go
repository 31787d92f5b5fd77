package telemetry

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestDiffSeries: the join takes the union of both sides' names, sorted;
// counts identical values (two NaNs included) as equal; lists the names one
// side lacks; and signs each delta b - a.
func TestDiffSeries(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		a, b map[string]float64
		want Diff
	}{
		{"both empty", nil, map[string]float64{},
			Diff{Changed: []SeriesDiff{}, OnlyA: []string{}, OnlyB: []string{}}},
		{"self", map[string]float64{"x": 1, "y": nan}, map[string]float64{"x": 1, "y": nan},
			Diff{Equal: 2, Changed: []SeriesDiff{}, OnlyA: []string{}, OnlyB: []string{}}},
		{"union and order",
			map[string]float64{"z": 1, "b": 5, "a": 2, "only_a2": 0, "only_a1": 0},
			map[string]float64{"z": 1, "b": 3, "a": 4, "only_b": 7},
			Diff{
				Equal: 1,
				Changed: []SeriesDiff{
					{Series: "a", A: 2, B: 4, Delta: 2},
					{Series: "b", A: 5, B: 3, Delta: -2},
				},
				OnlyA: []string{"only_a1", "only_a2"},
				OnlyB: []string{"only_b"},
			}},
		{"zero and negative zero are equal", map[string]float64{"x": 0}, map[string]float64{"x": math.Copysign(0, -1)},
			Diff{Equal: 1, Changed: []SeriesDiff{}, OnlyA: []string{}, OnlyB: []string{}}},
	} {
		if got := DiffSeries(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: DiffSeries = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestDiffFprint: one line per changed series with its delta and percent
// change (n/a from zero), the one-sided names, and the footer of counts.
func TestDiffFprint(t *testing.T) {
	d := DiffSeries(
		map[string]float64{"grew": 2, "from_zero": 0, "same": 1, "gone": 1},
		map[string]float64{"grew": 3, "from_zero": 4, "same": 1, "new": 1},
	)
	var b strings.Builder
	if err := d.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	want := "from_zero 0 -> 4 (+4, n/a)\n" +
		"grew 2 -> 3 (+1, +50.0%)\n" +
		"only in a: gone\n" +
		"only in b: new\n" +
		"5 series: 2 changed, 1 equal, 1 only in a, 1 only in b\n"
	if b.String() != want {
		t.Errorf("Fprint:\n%s\nwant:\n%s", b.String(), want)
	}
}
