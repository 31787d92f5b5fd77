package critpath

import (
	"fmt"
	"strings"
	"testing"
)

// Span-file fragments for the table fixtures: a process_name record, a
// queue span of dur microseconds and one async begin or end event.
func procName(pid int, name string) string {
	return fmt.Sprintf(`{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":%q}}`, pid, name)
}

func queueSpan(pid int, dur float64) string {
	return fmt.Sprintf(`{"name":"queue","cat":"request","ph":"X","ts":0,"dur":%v,"pid":%d,"tid":1}`, dur, pid)
}

func asyncEv(name, ph string, pid int, id string, ts float64, args string) string {
	ev := fmt.Sprintf(`{"name":%q,"cat":"c","ph":%q,"ts":%v,"pid":%d,"tid":0,"id":%q`, name, ph, ts, pid, id)
	if args != "" {
		ev += `,"args":` + args
	}
	return ev + "}"
}

// allreduce returns the begin and end of one all-reduce span; stage the
// same for one pipeline_stage span.
func allreduce(pid int, id string, b, e float64, args string) []string {
	return []string{asyncEv("allreduce", "b", pid, id, b, args), asyncEv("allreduce", "e", pid, id, e, "")}
}

func stage(id string, b, e float64, args string) []string {
	return []string{asyncEv("pipeline_stage", "b", 1, id, b, args), asyncEv("pipeline_stage", "e", 1, id, e, "")}
}

// The section headers; a span file with no table rows prints only these.
const (
	queueHeader     = "## queue\nPROCESS\tN\tP50_MS\tP99_MS\n"
	allreduceHeader = "## allreduce\nSCHEME\tN\tMEAN_MS\tP99_MS\n"
	stagesHeader    = "## stages\nSTAGE\tN\tMEAN_MS\tP99_MS\n"
)

// tableCases are the edge cases of the trace aggregates. Each want is what
// the jq queries the golden gate used before the tables moved to Go printed
// for the same span file (jq 1.6).
func tableCases() []struct {
	name   string
	events []string
	want   string
} {
	// 101 all-reduces and queue spans of 1..101 ms, out of order.
	var hundredOne []string
	for i := 0; i < 101; i++ {
		d := float64((i*37)%101+1) * 1000
		hundredOne = append(hundredOne, queueSpan(2, d))
		hundredOne = append(hundredOne, allreduce(2, fmt.Sprintf("0x%x", i+1), 0, d, `{"scheme":"ring"}`)...)
	}
	return []struct {
		name   string
		events []string
		want   string
	}{
		{
			name: "unpaired begin",
			events: cat([]string{asyncEv("allreduce", "b", 1, "0x1", 100, `{"scheme":"ina-sync"}`)},
				allreduce(1, "0x2", 200, 1200, `{"scheme":"ring"}`),
				[]string{asyncEv("pipeline_stage", "b", 1, "0x3", 300, `{"stage":1}`)}),
			want: queueHeader + allreduceHeader + "ring\t1\t1\t1\n" + stagesHeader,
		},
		{
			name: "reused async id drops the group of four",
			events: cat(allreduce(1, "0x1", 0, 500, `{"scheme":"ina-sync"}`),
				allreduce(1, "0x1", 1000, 1700, `{"scheme":"ina-sync"}`),
				allreduce(1, "0x2", 2000, 2250, `{"scheme":"ring"}`)),
			want: queueHeader + allreduceHeader + "ring\t1\t0.25\t0.25\n" + stagesHeader,
		},
		{
			name: "missing scheme and stage",
			events: cat(allreduce(1, "0x1", 0, 1000, ""),
				allreduce(1, "0x2", 0, 3000, `{"bytes":1}`),
				allreduce(1, "0x3", 0, 2000, `{"scheme":"ring"}`),
				stage("0x4", 0, 4000, `{"bytes":8}`)),
			want: queueHeader + allreduceHeader + "ring\t1\t2\t2\nunknown\t2\t2\t1\n" +
				stagesHeader + "?\t1\t4\t4\n",
		},
		{
			name: "process names: none, the last one, escaped",
			events: []string{procName(1, "HeroServe"), procName(3, "First"), procName(3, "Last"), procName(4, "tab\there"),
				queueSpan(2, 1000), queueSpan(1, 2000), queueSpan(3, 3000), queueSpan(4, 4000), queueSpan(2, 5000)},
			want: queueHeader + "HeroServe\t1\t2\t2\n2\t2\t1\t1\nLast\t1\t3\t3\ntab\\there\t1\t4\t4\n" +
				allreduceHeader + stagesHeader,
		},
		{
			name: "stages sort numbers first, numerically",
			events: cat(stage("0x1", 0, 1000, `{"stage":10}`), stage("0x2", 0, 2000, `{"stage":2}`),
				stage("0x3", 0, 3000, `{"stage":"b"}`), stage("0x4", 0, 4000, `{"stage":2}`),
				stage("0x5", 0, 500, `{}`), stage("0x6", 0, 1500, `{"stage":10}`)),
			want: queueHeader + allreduceHeader +
				stagesHeader + "2\t2\t3\t2\n10\t2\t1.25\t1\n?\t1\t0.5\t0.5\nb\t1\t3\t3\n",
		},
		{
			name:   "only queue spans",
			events: []string{procName(1, "HeroServe"), queueSpan(1, 1500)},
			want:   queueHeader + "HeroServe\t1\t1.5\t1.5\n" + allreduceHeader + stagesHeader,
		},
		{
			name:   "no queue spans",
			events: allreduce(1, "0x1", 0, 1000, `{"scheme":"ring"}`),
			want:   queueHeader + allreduceHeader + "ring\t1\t1\t1\n" + stagesHeader,
		},
		{
			name: "rounding at x.xxx5 goes away from zero",
			events: cat([]string{queueSpan(1, 0.5), queueSpan(2, 2.5), queueSpan(3, 1234.5), queueSpan(4, -2.5)},
				allreduce(1, "0x1", 1000, 1001.5, `{"scheme":"ring"}`),
				allreduce(1, "0x2", 1000, 1002.5, `{"scheme":"ina-sync"}`)),
			want: queueHeader + "1\t1\t0.001\t0.001\n2\t1\t0.003\t0.003\n3\t1\t1.235\t1.235\n4\t1\t-0.003\t-0.003\n" +
				allreduceHeader + "ina-sync\t1\t0.003\t0.003\nring\t1\t0.002\t0.002\n" + stagesHeader,
		},
		{
			name:   "p99 index at n=1 and n=101",
			events: append([]string{procName(1, "One"), procName(2, "Hundred-one"), queueSpan(1, 7000)}, hundredOne...),
			want: queueHeader + "One\t1\t7\t7\nHundred-one\t101\t51\t100\n" +
				allreduceHeader + "ring\t101\t51\t100\n" + stagesHeader,
		},
		{
			name: "large values print without an exponent",
			events: cat([]string{queueSpan(1, 1234567890)},
				allreduce(1, "0x1", 0, 3e9, `{"scheme":"ring"}`)),
			want: queueHeader + "1\t1\t1234567.89\t1234567.89\n" +
				allreduceHeader + "ring\t1\t3000000\t3000000\n" + stagesHeader,
		},
		{
			name: "equal timestamps keep file order",
			events: []string{asyncEv("allreduce", "e", 1, "0x1", 500, ""), asyncEv("allreduce", "b", 1, "0x1", 500, `{"scheme":"ring"}`),
				asyncEv("allreduce", "e", 1, "0x2", 900, `{"scheme":"late"}`), asyncEv("allreduce", "b", 1, "0x2", 100, `{"scheme":"ina-sync"}`)},
			want: queueHeader + allreduceHeader + "ina-sync\t1\t0.8\t0.8\nunknown\t1\t0\t0\n" + stagesHeader,
		},
	}
}

// cat concatenates event lists.
func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// traceDocOf wraps events in a span file.
func traceDocOf(events []string) string {
	return `{"displayTimeUnit":"ms","traceEvents":[` + strings.Join(events, ",") + "]}"
}

func TestTablesEdgeCases(t *testing.T) {
	for _, c := range tableCases() {
		t.Run(c.name, func(t *testing.T) {
			tabs, err := TablesFromTrace(strings.NewReader(traceDocOf(c.events)))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			if err := tabs.WriteTSV(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != c.want {
				t.Errorf("got:\n%s\nwant:\n%s", got.String(), c.want)
			}
		})
	}
}

func TestTablesRejectAnEmptyTrace(t *testing.T) {
	if _, err := TablesFromTrace(strings.NewReader(`{"traceEvents":[]}`)); err != ErrNoEvents {
		t.Errorf("err = %v, want ErrNoEvents", err)
	}
}
