package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The critical-path metric families: the per-stage counters the critpath
// collector bumps and the stage rows of hstat trace -diff.
const (
	TTFTCritPathFamily = "ttft_critical_path_seconds_total"
	E2ECritPathFamily  = "e2e_critical_path_seconds_total"
)

// SeriesName renders one labelled series name the way the Prometheus
// exposition does: family{label="value"}.
func SeriesName(family, label, value string) string {
	return family + labelString([]string{label}, []string{value})
}

// SeriesDiff is one named series whose value differs between two sides.
type SeriesDiff struct {
	Series string    `json:"series"`
	A      JSONFloat `json:"a"`
	B      JSONFloat `json:"b"`
	Delta  JSONFloat `json:"delta"`
}

// Diff is the one comparison of two artifacts or runs, each reduced to named
// series: the series present on both sides with different values (sorted by
// name), the series only one side holds, and the count of identical series.
type Diff struct {
	Equal   int          `json:"equal_series"`
	Changed []SeriesDiff `json:"changed"`
	OnlyA   []string     `json:"only_a"`
	OnlyB   []string     `json:"only_b"`
}

// SortedKeys returns a map's keys in ascending order, the one order of named
// series, stages, rules and laws across the telemetry packages.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DiffSeries joins two sets of named series. Two NaNs count as equal, so a
// self-diff never reports a change.
func DiffSeries(a, b map[string]float64) Diff {
	d := Diff{Changed: []SeriesDiff{}, OnlyA: []string{}, OnlyB: []string{}}
	names := SortedKeys(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		va, okA := a[k]
		vb, okB := b[k]
		switch {
		case !okB:
			d.OnlyA = append(d.OnlyA, k)
		case !okA:
			d.OnlyB = append(d.OnlyB, k)
		case va == vb || math.IsNaN(va) && math.IsNaN(vb):
			d.Equal++
		default:
			d.Changed = append(d.Changed, SeriesDiff{Series: k, A: JSONFloat(va), B: JSONFloat(vb), Delta: JSONFloat(vb - va)})
		}
	}
	return d
}

// Fprint renders the diff as text: one line per changed series (a -> b, the
// delta, and b/a-1 as a percent, n/a when a is 0), then the series only one
// side holds, then a footer of counts.
func (d Diff) Fprint(w io.Writer) error {
	for _, c := range d.Changed {
		pct := "n/a"
		if c.A != 0 {
			pct = fmt.Sprintf("%+.1f%%", (float64(c.B)/float64(c.A)-1)*100)
		}
		fmt.Fprintf(w, "%s %.6g -> %.6g (%+.6g, %s)\n", c.Series, c.A, c.B, c.Delta, pct)
	}
	for _, s := range d.OnlyA {
		fmt.Fprintf(w, "only in a: %s\n", s)
	}
	for _, s := range d.OnlyB {
		fmt.Fprintf(w, "only in b: %s\n", s)
	}
	_, err := fmt.Fprintf(w, "%d series: %d changed, %d equal, %d only in a, %d only in b\n",
		len(d.Changed)+d.Equal+len(d.OnlyA)+len(d.OnlyB), len(d.Changed), d.Equal, len(d.OnlyA), len(d.OnlyB))
	return err
}
