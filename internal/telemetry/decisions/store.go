package decisions

import (
	"encoding/binary"
	"fmt"

	"heroserve/internal/telemetry"
)

// Records per chunk of each kind. A collective chunk holds 512 rows (40 KiB)
// and their candidate costs; a scale chunk holds 64 scale records.
const (
	collectiveChunk = 512
	scaleChunk      = 64
)

// chunkList is an append-only sequence of records in fixed-size chunks: the
// storage of both record kinds. An append never moves a stored record, and
// every chunk but the last is full, which puts the i-th record one division
// away.
type chunkList[T any] struct {
	size   int
	chunks []chunk[T]
	n      int // records
}

// chunk is one block of records. A collective chunk also holds its rows'
// candidate costs, as (cost_j, cost_seconds) pairs.
type chunk[T any] struct {
	recs  []T
	costs []float64
}

// at returns the i-th record (oldest first) and its chunk.
func (cl *chunkList[T]) at(i int) (*chunk[T], *T) {
	c := &cl.chunks[i/cl.size]
	return c, &c.recs[i%cl.size]
}

// tail returns the chunk the next record goes into: the last one, or a new
// one when the last is full. A new chunk's cost area starts as large as its
// predecessor's grew.
func (cl *chunkList[T]) tail() *chunk[T] {
	n := len(cl.chunks)
	if n > 0 && len(cl.chunks[n-1].recs) < cl.size {
		return &cl.chunks[n-1]
	}
	c := chunk[T]{recs: make([]T, 0, cl.size)}
	if n > 0 {
		c.costs = make([]float64, 0, cap(cl.chunks[n-1].costs))
	}
	cl.chunks = append(cl.chunks, c)
	return &cl.chunks[n]
}

// push appends rec to c, which tail returned, and returns the stored copy.
func (cl *chunkList[T]) push(c *chunk[T], rec T) *T {
	c.recs = append(c.recs, rec)
	cl.n++
	return &c.recs[len(c.recs)-1]
}

// each calls fn on every record in order, with its chunk.
func (cl *chunkList[T]) each(fn func(c *chunk[T], rec *T)) {
	for k := range cl.chunks {
		c := &cl.chunks[k]
		for i := range c.recs {
			fn(c, &c.recs[i])
		}
	}
}

// row is one collective pick: a CollectiveRecord less its candidates, whose
// labels and schemes sit in the row's table and whose costs sit in the row's
// chunk. Strings are interned (Ledger.strs).
type row struct {
	t, actual, regret      float64
	bytes                  int64
	steps                  int
	costs                  int32 // offset of the pick's cost pairs in its chunk
	table                  int32
	chosen, best, executed int32
	scheme, reason         uint32
	stalled                bool
}

// table is one group's cost table, registered once: the group label and
// each candidate's label and scheme, interned. nilCands marks the table of a
// record added with a nil candidate slice, which renders as null.
type table struct {
	group           uint32
	labels, schemes []uint32
	nilCands        bool
}

// costs returns the (cost_j, cost_seconds) pairs of r, a row of t in c.
func (t *table) costs(c *chunk[row], r *row) []float64 {
	return c.costs[r.costs : int(r.costs)+2*len(t.labels)]
}

// Ledger is one run's decision ledger. It is owned by the simulation
// goroutine (like the metrics registry) and is not goroutine-safe. Make one
// with NewLedger.
//
// A collective pick is stored as one fixed-size row against its group's
// table, with its candidate costs beside it in the same chunk; scale records
// are stored whole. Collective and Scale read a record back in its
// CollectiveRecord or ScaleRecord form.
type Ledger struct {
	Meta ScaleMeta

	coll     chunkList[row]
	scale    chunkList[ScaleRecord]
	tables   []table
	tableIdx map[string]int32 // table key (tableOf) -> index in tables
	strs     []string
	strIdx   map[string]uint32
	key      []byte // tableOf's scratch
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		coll:     chunkList[row]{size: collectiveChunk},
		scale:    chunkList[ScaleRecord]{size: scaleChunk},
		tableIdx: map[string]int32{},
		strIdx:   map[string]uint32{},
	}
}

// intern returns s's index in l.strs, adding it on first sight.
func (l *Ledger) intern(s string) uint32 {
	if id, ok := l.strIdx[s]; ok {
		return id
	}
	id := uint32(len(l.strs))
	l.strs = append(l.strs, s)
	l.strIdx[s] = id
	return id
}

// tableOf returns the index of the table with this group and these
// candidates' labels and schemes, registering it on first sight. Costs are
// ignored.
func (l *Ledger) tableOf(group string, cands []CollectiveCandidate) int32 {
	k := binary.LittleEndian.AppendUint32(l.key[:0], l.intern(group))
	for i := range cands {
		k = binary.LittleEndian.AppendUint32(k, l.intern(cands[i].Label))
		k = binary.LittleEndian.AppendUint32(k, l.intern(cands[i].Scheme))
	}
	if cands == nil {
		k = append(k, 0)
	}
	l.key = k
	if id, ok := l.tableIdx[string(k)]; ok {
		return id
	}
	t := table{
		group:    l.strIdx[group],
		labels:   make([]uint32, len(cands)),
		schemes:  make([]uint32, len(cands)),
		nilCands: cands == nil,
	}
	for i := range cands {
		t.labels[i], t.schemes[i] = l.strIdx[cands[i].Label], l.strIdx[cands[i].Scheme]
	}
	id := int32(len(l.tables))
	l.tables = append(l.tables, t)
	l.tableIdx[string(k)] = id
	return id
}

// RegisterTable registers a group's cost table, its candidates' labels and
// schemes in row order, and returns the id AddPick takes. Registering the
// same table again returns the same id. Nil-safe (returns -1).
func (l *Ledger) RegisterTable(group string, labels, schemes []string) int {
	if l == nil {
		return -1
	}
	cands := make([]CollectiveCandidate, len(labels))
	for i := range cands {
		cands[i] = CollectiveCandidate{Label: labels[i], Scheme: schemes[i]}
	}
	return int(l.tableOf(group, cands))
}

// Pick is one policy-select decision as the online scheduler hands it over:
// a CollectiveRecord whose candidates are a registered table's rows.
type Pick struct {
	T     float64
	Table int // RegisterTable's id
	Bytes int64
	Steps int
	// Costs is the J(c, D) vector the table minimized, one entry per
	// candidate; each candidate's cost_seconds is its J times Window.
	Costs  []float64
	Window float64

	Chosen, Best, Executed int
	Scheme, Reason         string
	Actual, Regret         float64
	Stalled                bool
}

// AddPick appends one policy-select record without allocating once the
// ledger is warm. Nil-safe.
func (l *Ledger) AddPick(p Pick) {
	if l == nil {
		return
	}
	if n := len(l.tables[p.Table].labels); len(p.Costs) != n {
		panic(fmt.Sprintf("decisions: pick with %d costs against a table of %d candidates", len(p.Costs), n))
	}
	c := l.coll.tail()
	off := int32(len(c.costs))
	for _, j := range p.Costs {
		c.costs = append(c.costs, j, j*p.Window)
	}
	l.coll.push(c, row{
		t: p.T, actual: p.Actual, regret: p.Regret, bytes: p.Bytes, steps: p.Steps,
		costs: off, table: int32(p.Table),
		chosen: int32(p.Chosen), best: int32(p.Best), executed: int32(p.Executed),
		scheme: l.intern(p.Scheme), reason: l.intern(p.Reason),
		stalled: p.Stalled,
	})
}

// AddCollective appends one policy-select record, registering its table on
// first sight. Nil-safe.
func (l *Ledger) AddCollective(r CollectiveRecord) {
	if l == nil {
		return
	}
	tab := l.tableOf(r.Group, r.Candidates)
	c := l.coll.tail()
	off := int32(len(c.costs))
	for _, cd := range r.Candidates {
		c.costs = append(c.costs, float64(cd.CostJ), float64(cd.CostSeconds))
	}
	l.coll.push(c, row{
		t: r.T, actual: float64(r.Actual), regret: float64(r.Regret), bytes: r.Bytes, steps: r.Steps,
		costs: off, table: tab,
		chosen: int32(r.Chosen), best: int32(r.Best), executed: int32(r.Executed),
		scheme: l.intern(r.Scheme), reason: l.intern(r.Reason),
		stalled: r.Stalled,
	})
}

// AddScale appends one scale record and returns the stored copy so the
// caller can stamp its Outcome at the next control step. The pointer stays
// valid for the ledger's life. Nil-safe.
func (l *Ledger) AddScale(r ScaleRecord) *ScaleRecord {
	if l == nil {
		return nil
	}
	return l.scale.push(l.scale.tail(), r)
}

// Len returns the total record count (0 on nil).
func (l *Ledger) Len() int {
	return l.NumCollective() + l.NumScale()
}

// NumCollective returns how many policy-select records the ledger holds (0
// on nil).
func (l *Ledger) NumCollective() int {
	if l == nil {
		return 0
	}
	return l.coll.n
}

// NumScale returns how many scale records the ledger holds (0 on nil).
func (l *Ledger) NumScale() int {
	if l == nil {
		return 0
	}
	return l.scale.n
}

// Collective returns the i-th policy-select record, oldest first,
// in its CollectiveRecord form. The record and its candidates are the
// caller's.
func (l *Ledger) Collective(i int) CollectiveRecord {
	c, r := l.coll.at(i)
	return l.record(c, r)
}

// record rebuilds r's CollectiveRecord.
func (l *Ledger) record(c *chunk[row], r *row) CollectiveRecord {
	tab := &l.tables[r.table]
	rec := CollectiveRecord{
		T: r.t, Group: l.strs[tab.group], Bytes: r.bytes, Steps: r.steps,
		Chosen: int(r.chosen), Best: int(r.best), Executed: int(r.executed),
		Scheme: l.strs[r.scheme], Reason: l.strs[r.reason],
		Actual: telemetry.JSONFloat(r.actual), Regret: telemetry.JSONFloat(r.regret),
		Stalled: r.stalled,
	}
	if !tab.nilCands {
		costs := tab.costs(c, r)
		rec.Candidates = make([]CollectiveCandidate, len(tab.labels))
		for i := range rec.Candidates {
			rec.Candidates[i] = CollectiveCandidate{
				Label: l.strs[tab.labels[i]], Scheme: l.strs[tab.schemes[i]],
				CostJ: telemetry.JSONFloat(costs[2*i]), CostSeconds: telemetry.JSONFloat(costs[2*i+1]),
			}
		}
	}
	return rec
}

// Scale returns the i-th scale record, oldest first. The pointer
// addresses the stored record, with AddScale's validity.
func (l *Ledger) Scale(i int) *ScaleRecord {
	_, r := l.scale.at(i)
	return r
}
