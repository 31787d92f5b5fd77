package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The differential harness drives two engines through one and the same
// pre-generated script and asserts they are indistinguishable: identical
// callback sequences (timestamp bits and identity), identical
// Processed/Pending/PendingWork counters after every step, identical clocks.
// It pits the reference heap against the fast front, a run that moves
// events with Reschedule against one that cancels them and schedules fresh
// ones, and one
// that moves them with Reschedule against one that reserves the number
// first and re-arms under it with ScheduleSeq later.
//
// A script is a forest of event nodes generated up front from a seed, so
// both runs interpret exactly the same structure: roots are scheduled at
// absolute times; every executed node may schedule children (some as posted
// daemon ticks), cancel an earlier node's event, and move an earlier node's
// event to a new time. Cancellations of pending events are the load-bearing
// part — the reference engine removes them eagerly, the fast engine
// tombstones them — and the interleaving with same-timestamp scheduling
// exercises the FIFO tie-break. Move targets are pending, cancelled or
// already-run events, and zero-delay moves collide with events queued for
// the same instant.

type scriptNode struct {
	rootAt    Time  // absolute schedule time (roots only)
	delay     Time  // delay from the parent's instant when scheduled as a child
	daemon    bool  // posted with PostAfterDaemon; never a cancel or move target
	children  []int // node ids scheduled from this node's callback
	cancels   int   // node id whose event to cancel from the callback; -1 none
	moves     int   // node id whose event to reschedule from the callback; -1 none
	moveDelay Time  // the moved event's new delay from now
	isRoot    bool
}

// genScript builds a deterministic forest of n nodes.
func genScript(seed int64, n int) []scriptNode {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]scriptNode, n)
	roots := n / 10
	if roots < 1 {
		roots = 1
	}
	// Delays on a coarse grid, with a heavy dose of zero delays
	// (same-instant chains).
	delay := func() Time {
		if rng.Intn(4) == 0 {
			return 0
		}
		return Time(rng.Intn(40)) / 16.0
	}
	for i := range nodes {
		nd := &nodes[i]
		if i < roots {
			nd.isRoot = true
			// Coarse grid: forces plenty of exact timestamp collisions.
			nd.rootAt = Time(rng.Intn(200)) / 8.0
		} else {
			// Attach to an earlier node.
			parent := rng.Intn(i)
			nodes[parent].children = append(nodes[parent].children, i)
			nd.delay = delay()
		}
		nd.daemon = rng.Intn(8) == 0
		nd.cancels = -1
		if i > 0 && rng.Intn(3) == 0 {
			nd.cancels = rng.Intn(i)
		}
		nd.moves = -1
		if i > 0 && rng.Intn(3) == 0 {
			nd.moves = rng.Intn(i)
			nd.moveDelay = delay()
		}
	}
	// A daemon tick is posted without a handle, so one that some node
	// cancels or moves is queued as work instead.
	for i, targeted := range targetedNodes(nodes) {
		if targeted {
			nodes[i].daemon = false
		}
	}
	return nodes
}

// Move-target states counted by scriptRun.moved.
const (
	movedPending = iota
	movedCancelled
	movedRan
	movedToNow // zero-delay moves, any state
)

type scriptRun struct {
	eng   *Engine
	nodes []scriptNode
	// viaCancel makes moves Cancel the event and schedule a fresh one
	// instead of calling Reschedule.
	viaCancel bool
	// early makes a node's move take its sequence number before the node
	// schedules its children. With reserve, the number is reserved then and
	// the event re-armed under it with ScheduleSeq once the children are
	// queued; without, the event is rescheduled then.
	early, reserve bool
	events         []*Event
	pending        []bool // the node's event is armed and has not run since
	acted          []bool // the node ran its children/cancel/move actions
	moved          [4]int
	// log records (node id, timestamp bits) per executed callback.
	logIDs []int
	logAts []uint64

	// post queues every non-daemon node that no other node cancels or moves
	// with Post instead of with a handle: those events need none.
	post     bool
	targeted []bool // the node is some node's cancel or move target
	posted   int    // events queued with Post

	// streams queues those handle-free nodes as streams instead: the roots
	// as one, and each node's such children as one. each posts a stream
	// with PostEach, otherwise with a Post loop; order picks its times.
	streams  bool
	each     bool
	order    streamOrder
	streamed int // elements queued in streams
}

// streamOrder picks the times of a script stream's elements.
type streamOrder int

const (
	orderAsIs   streamOrder = iota // the script's own times, mostly unsorted
	orderSorted                    // the same times, ascending
	orderEqual                     // every element at the stream's first time
)

func (o streamOrder) String() string {
	return [...]string{"as-is", "sorted", "equal"}[o]
}

func newScriptRun(eng *Engine, nodes []scriptNode, viaCancel bool) *scriptRun {
	r := &scriptRun{
		eng: eng, nodes: nodes, viaCancel: viaCancel,
		events:  make([]*Event, len(nodes)),
		pending: make([]bool, len(nodes)),
		acted:   make([]bool, len(nodes)),
	}
	r.scheduleRoots()
	return r
}

func (r *scriptRun) scheduleRoots() {
	for i := range r.nodes {
		if r.nodes[i].isRoot {
			r.events[i] = r.schedule(i, r.nodes[i].rootAt)
		}
	}
}

func (r *scriptRun) schedule(i int, at Time) *Event {
	r.pending[i] = true
	if r.nodes[i].daemon {
		// Script times lie on a 1/16 s grid, so the delay is exact.
		r.eng.PostAfterDaemon(at-r.eng.Now(), func() { r.fire(i) })
		return nil
	}
	if r.post && !r.targeted[i] {
		r.posted++
		r.eng.Post(at, func() { r.fire(i) })
		return nil
	}
	return r.eng.schedule(at, func() { r.fire(i) })
}

// targetedNodes marks every node some node cancels or moves.
func targetedNodes(nodes []scriptNode) []bool {
	targeted := make([]bool, len(nodes))
	for _, nd := range nodes {
		if nd.cancels >= 0 {
			targeted[nd.cancels] = true
		}
		if nd.moves >= 0 {
			targeted[nd.moves] = true
		}
	}
	return targeted
}

// newPostRun is newScriptRun with post set: untargeted non-daemon nodes are
// posted, the rest scheduled.
func newPostRun(eng *Engine, nodes []scriptNode) *scriptRun {
	r := &scriptRun{
		eng: eng, nodes: nodes, post: true, targeted: targetedNodes(nodes),
		events:  make([]*Event, len(nodes)),
		pending: make([]bool, len(nodes)),
		acted:   make([]bool, len(nodes)),
	}
	r.scheduleRoots()
	return r
}

// newStreamRun queues untargeted non-daemon nodes in streams, with
// PostEach when each is set and a Post loop otherwise. Half of the other
// roots are scheduled before the root stream and half after it, so events
// share the stream's instants with lower and with higher sequence numbers.
func newStreamRun(eng *Engine, nodes []scriptNode, each bool, order streamOrder) *scriptRun {
	r := &scriptRun{
		eng: eng, nodes: nodes, streams: true, each: each, order: order,
		targeted: targetedNodes(nodes),
		events:   make([]*Event, len(nodes)),
		pending:  make([]bool, len(nodes)),
		acted:    make([]bool, len(nodes)),
	}
	var ids, rest []int
	var ats []Time
	for i := range nodes {
		switch {
		case !nodes[i].isRoot:
		case r.streamable(i):
			ids = append(ids, i)
			ats = append(ats, nodes[i].rootAt)
		default:
			rest = append(rest, i)
		}
	}
	half := len(rest) / 2
	for _, i := range rest[:half] {
		r.events[i] = r.schedule(i, nodes[i].rootAt)
	}
	r.stream(ids, ats)
	for _, i := range rest[half:] {
		r.events[i] = r.schedule(i, nodes[i].rootAt)
	}
	return r
}

// streamable reports whether node i goes out in a stream: it needs no
// handle and is not a daemon.
func (r *scriptRun) streamable(i int) bool {
	return r.streams && !r.targeted[i] && !r.nodes[i].daemon
}

// stream queues node ids[k] at ats[k] for every k as one stream, after
// reordering the times as r.order asks.
func (r *scriptRun) stream(ids []int, ats []Time) {
	if len(ids) == 0 {
		return
	}
	switch r.order {
	case orderSorted:
		sort.Stable(byAt{ids, ats})
	case orderEqual:
		for k := range ats {
			ats[k] = ats[0]
		}
	}
	for _, i := range ids {
		r.pending[i] = true
		r.events[i] = nil
	}
	r.streamed += len(ids)
	if r.each {
		r.eng.PostEach(len(ids), func(k int) Time { return ats[k] }, func(k int) { r.fire(ids[k]) })
		return
	}
	for k := range ids {
		k := k
		r.eng.Post(ats[k], func() { r.fire(ids[k]) })
	}
}

// byAt sorts a stream's node ids and times together by time.
type byAt struct {
	ids []int
	ats []Time
}

func (b byAt) Len() int           { return len(b.ids) }
func (b byAt) Less(i, j int) bool { return b.ats[i] < b.ats[j] }
func (b byAt) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.ats[i], b.ats[j] = b.ats[j], b.ats[i]
}

func (r *scriptRun) fire(i int) {
	r.logIDs = append(r.logIDs, i)
	r.logAts = append(r.logAts, math.Float64bits(r.eng.Now()))
	r.pending[i] = false
	// A moved node can fire more than once; it acts only the first time, so
	// every script terminates.
	if r.acted[i] {
		return
	}
	r.acted[i] = true
	nd := &r.nodes[i]
	moving := nd.moves >= 0 && r.events[nd.moves] != nil
	moveAt := r.eng.Now() + nd.moveDelay
	var seq uint64
	if r.early && moving {
		if r.reserve {
			seq = r.eng.ReserveSeq(1)
		} else {
			r.move(nd.moves, moveAt)
		}
	}
	var ids []int
	var ats []Time
	for _, c := range nd.children {
		at := r.eng.Now() + r.nodes[c].delay
		if r.streamable(c) {
			ids = append(ids, c)
			ats = append(ats, at)
			continue
		}
		r.events[c] = r.schedule(c, at)
	}
	r.stream(ids, ats)
	if r.reserve && moving {
		r.moveUnder(nd.moves, moveAt, seq)
	}
	if nd.cancels >= 0 {
		r.eng.Cancel(r.events[nd.cancels]) // nil-safe: target may be unscheduled
	}
	if !r.early && moving {
		r.move(nd.moves, moveAt)
	}
}

// move re-arms node t's event at time at.
func (r *scriptRun) move(t int, at Time) {
	r.countMove(t, at)
	ev := r.events[t]
	if !r.viaCancel {
		r.pending[t] = true
		r.eng.Reschedule(ev, at)
		return
	}
	r.eng.Cancel(ev)
	r.events[t] = r.schedule(t, at)
}

// moveUnder re-arms node t's event at time at under seq, a number reserved
// earlier.
func (r *scriptRun) moveUnder(t int, at Time, seq uint64) {
	r.countMove(t, at)
	r.pending[t] = true
	r.eng.ScheduleSeq(r.events[t], at, seq, func() { r.fire(t) })
}

// countMove counts a move of node t's event to at by the event's state.
func (r *scriptRun) countMove(t int, at Time) {
	ev := r.events[t]
	switch {
	case ev.Cancelled():
		r.moved[movedCancelled]++
	case r.pending[t]:
		r.moved[movedPending]++
	default:
		r.moved[movedRan]++
	}
	if at == r.eng.Now() {
		r.moved[movedToNow]++
	}
}

// lockstep mirrors Run()'s loop on both engines simultaneously, comparing
// all externally observable engine state after every single step. With
// sameFront, the two runs share a queue implementation and their
// QueueStats must agree too.
func lockstep(t *testing.T, a, b *scriptRun, checkpoints []Time, sameFront bool) {
	t.Helper()
	cmp := func(step int) {
		t.Helper()
		if x, y := a.eng.Now(), b.eng.Now(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d: Now a=%g b=%g", step, x, y)
		}
		if x, y := a.eng.Processed(), b.eng.Processed(); x != y {
			t.Fatalf("step %d: Processed a=%d b=%d", step, x, y)
		}
		if x, y := a.eng.Pending(), b.eng.Pending(); x != y {
			t.Fatalf("step %d: Pending a=%d b=%d", step, x, y)
		}
		if x, y := a.eng.PendingWork(), b.eng.PendingWork(); x != y {
			t.Fatalf("step %d: PendingWork a=%d b=%d", step, x, y)
		}
		if sameFront {
			if x, y := a.eng.QueueStats(), b.eng.QueueStats(); x != y {
				t.Fatalf("step %d: QueueStats a=%+v b=%+v", step, x, y)
			}
		}
		if len(a.logIDs) != len(b.logIDs) {
			t.Fatalf("step %d: log length a=%d b=%d", step, len(a.logIDs), len(b.logIDs))
		}
		for k := range a.logIDs {
			if a.logIDs[k] != b.logIDs[k] || a.logAts[k] != b.logAts[k] {
				t.Fatalf("step %d: log[%d] a=(%d,%x) b=(%d,%x)", step, k,
					a.logIDs[k], a.logAts[k], b.logIDs[k], b.logAts[k])
			}
		}
	}
	step := 0
	// Exercise RunUntil's peek path at a few deadlines before draining.
	for _, ckpt := range checkpoints {
		a.eng.RunUntil(ckpt)
		b.eng.RunUntil(ckpt)
		step++
		cmp(step)
	}
	for {
		ra, rb := a.eng.PendingWork() > 0, b.eng.PendingWork() > 0
		if ra != rb {
			t.Fatalf("step %d: PendingWork>0 a=%v b=%v", step, ra, rb)
		}
		if !ra {
			break
		}
		sa, sb := a.eng.Step(), b.eng.Step()
		if sa != sb {
			t.Fatalf("step %d: Step a=%v b=%v", step, sa, sb)
		}
		step++
		cmp(step)
		if !sa {
			break
		}
	}
	cmp(step)
}

// requireMoveCoverage fails unless the run rescheduled pending, cancelled
// and already-run events, and moved some of them to the current instant.
func requireMoveCoverage(t *testing.T, r *scriptRun) {
	t.Helper()
	for k, name := range []string{"pending", "cancelled", "already-run", "same-instant"} {
		if r.moved[k] == 0 {
			t.Errorf("script moved no %s events (moves by kind: %v)", name, r.moved)
		}
	}
}

func diffSeeds() ([]int64, int) {
	if testing.Short() {
		return []int64{1, 2, 3}, 10000
	}
	return []int64{1, 2, 3, 4}, 12000
}

// TestDifferentialEngines drives both engines through long randomized
// scripts (>= 10k nodes per seed, >= 3 seeds), moves included, and requires
// exact agreement at every step.
func TestDifferentialEngines(t *testing.T) {
	seeds, size := diffSeeds()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nodes := genScript(seed, size)
			ref := newScriptRun(NewReferenceEngine(), nodes, false)
			fast := newScriptRun(NewEngine(), nodes, false)
			lockstep(t, ref, fast, []Time{1.5, 7.25, 13}, false)
			if len(ref.logIDs) == 0 {
				t.Fatal("script executed no events")
			}
			requireMoveCoverage(t, fast)
		})
	}
}

// TestDifferentialReschedule proves Reschedule is Cancel plus a fresh event
// on each front: the same script, with every move made either way, must give the
// same callbacks, counters and queue statistics at every step.
func TestDifferentialReschedule(t *testing.T) {
	seeds, size := diffSeeds()
	for _, impl := range benchEngines {
		for _, seed := range seeds {
			impl, seed := impl, seed
			t.Run(fmt.Sprintf("%s/seed=%d", impl.name, seed), func(t *testing.T) {
				nodes := genScript(seed, size)
				moved := newScriptRun(impl.mk(), nodes, false)
				cancelled := newScriptRun(impl.mk(), nodes, true)
				lockstep(t, moved, cancelled, []Time{1.5, 7.25, 13}, true)
				requireMoveCoverage(t, moved)
			})
		}
	}
}

// TestDifferentialReserve proves ScheduleSeq under a reserved number is
// Reschedule at the reservation on each front: the same script, with every
// move rescheduled before the moving node queues its children in one run,
// and reserved there but re-armed with ScheduleSeq after them in the other,
// must give the same callbacks, counters and queue statistics at every
// step.
func TestDifferentialReserve(t *testing.T) {
	seeds, size := diffSeeds()
	for _, impl := range benchEngines {
		for _, seed := range seeds {
			impl, seed := impl, seed
			t.Run(fmt.Sprintf("%s/seed=%d", impl.name, seed), func(t *testing.T) {
				nodes := genScript(seed, size)
				reserved := newScriptRun(impl.mk(), nodes, false)
				reserved.early, reserved.reserve = true, true
				moved := newScriptRun(impl.mk(), nodes, false)
				moved.early = true
				lockstep(t, reserved, moved, []Time{1.5, 7.25, 13}, true)
				requireMoveCoverage(t, reserved)
			})
		}
	}
}

// TestDifferentialPost proves Post is a handle's event without the handle on
// each front: the same script, with every untargeted non-daemon node posted
// in one run and given a handle in the other, must give the same callbacks,
// counters and queue statistics at every step. Posts happen from inside
// posted callbacks (children of posted nodes), next to daemon events and
// events rescheduled like a timer, and posted events are recycled and
// reused many times over the script.
func TestDifferentialPost(t *testing.T) {
	seeds, size := diffSeeds()
	for _, impl := range benchEngines {
		for _, seed := range seeds {
			impl, seed := impl, seed
			t.Run(fmt.Sprintf("%s/seed=%d", impl.name, seed), func(t *testing.T) {
				nodes := genScript(seed, size)
				posted := newPostRun(impl.mk(), nodes)
				scheduled := newScriptRun(impl.mk(), nodes, false)
				lockstep(t, posted, scheduled, []Time{1.5, 7.25, 13}, true)
				requireMoveCoverage(t, posted)
				if posted.posted < size/4 {
					t.Errorf("only %d of %d nodes posted", posted.posted, size)
				}
				if n := len(posted.eng.free); n == 0 || n >= posted.posted {
					t.Errorf("free list holds %d events after %d posts: want reuse", n, posted.posted)
				}
			})
		}
	}
}

// TestDifferentialPostEach proves PostEach is its Post loop on each front:
// the same script, with every stream of handle-free nodes posted by
// PostEach in one run and by a Post loop in the other, must give the same
// callbacks, clock and Processed/Pending/PendingWork counters at every
// step. The root stream shares its instants with events scheduled before
// and after it and with events scheduled while it runs, next to cancels,
// reschedules and daemons; every fired node posts its own children as a
// nested stream. Times run as the script draws them (unsorted), sorted, and
// all equal.
func TestDifferentialPostEach(t *testing.T) {
	seeds, size := diffSeeds()
	for _, impl := range benchEngines {
		for _, order := range []streamOrder{orderAsIs, orderSorted, orderEqual} {
			for _, seed := range seeds {
				impl, order, seed := impl, order, seed
				t.Run(fmt.Sprintf("%s/%s/seed=%d", impl.name, order, seed), func(t *testing.T) {
					nodes := genScript(seed, size)
					each := newStreamRun(impl.mk(), nodes, true, order)
					loop := newStreamRun(impl.mk(), nodes, false, order)
					if q, p := each.eng.QueueStats().Live, each.eng.Pending(); q >= p {
						t.Fatalf("PostEach run queues %d events for %d pending: want one per stream", q, p)
					}
					lockstep(t, each, loop, []Time{1.5, 7.25, 13}, false)
					requireMoveCoverage(t, each)
					if each.streamed < size/4 {
						t.Errorf("only %d of %d nodes streamed", each.streamed, size)
					}
				})
			}
		}
	}
}

// fuzzRun interprets a byte program on one engine. Every callback logs its
// id and time and then runs the program's next op, so ops run from inside
// callbacks (nested posts and streams) as well as between steps.
type fuzzRun struct {
	eng     *Engine
	each    bool // post streams with PostEach, otherwise with a Post loop
	prog    []byte
	pc      int
	handles []*Event
	nextID  int
	log     []uint64 // id and time bits per executed callback
	bad     int      // rejected streams
	badErr  string   // the first rejected stream that queued anything
}

func (r *fuzzRun) next() byte {
	if r.pc >= len(r.prog) {
		return 0
	}
	b := r.prog[r.pc]
	r.pc++
	return b
}

// at draws a time from now to 1.75 s ahead on a quarter-second grid, so
// streams and other events keep landing on the same instants.
func (r *fuzzRun) at() Time { return r.eng.Now() + Time(r.next()%8)/4 }

func (r *fuzzRun) fired(id int) {
	r.log = append(r.log, uint64(id), math.Float64bits(r.eng.Now()))
	r.exec()
}

func (r *fuzzRun) callback() func() {
	id := r.nextID
	r.nextID++
	return func() { r.fired(id) }
}

func (r *fuzzRun) handle() *Event {
	if len(r.handles) == 0 {
		return nil
	}
	return r.handles[int(r.next())%len(r.handles)]
}

// exec runs the program's next op, if any.
func (r *fuzzRun) exec() {
	if r.pc >= len(r.prog) {
		return
	}
	switch r.next() % 8 {
	case 0, 1:
		ats := make([]Time, r.next()%9)
		for k := range ats {
			ats[k] = r.at()
		}
		base := r.nextID
		r.nextID += len(ats)
		if r.each {
			r.eng.PostEach(len(ats), func(k int) Time { return ats[k] }, func(k int) { r.fired(base + k) })
			return
		}
		for k, at := range ats {
			id := base + k
			r.eng.Post(at, func() { r.fired(id) })
		}
	case 2:
		r.handles = append(r.handles, r.eng.schedule(r.at(), r.callback()))
	case 3:
		r.eng.Post(r.at(), r.callback())
	case 4:
		r.eng.PostAfterDaemon(Time(r.next()%8)/4, r.callback()) // r.at()'s delay
	case 5:
		r.eng.Cancel(r.handle())
	case 6:
		if ev := r.handle(); ev != nil {
			r.eng.Reschedule(ev, r.at())
		}
	case 7:
		r.rejectStream()
	}
}

// rejectStream posts a stream with one time in the past or NaN, which
// PostEach must refuse at the call with nothing queued. Both runs post it
// with PostEach: a Post loop would queue the elements before the bad one.
func (r *fuzzRun) rejectStream() {
	ats := make([]Time, r.next()%4+1)
	for k := range ats {
		ats[k] = r.at()
	}
	bad := math.NaN()
	if now := r.eng.Now(); now > 0 && r.next()%2 == 0 {
		bad = now / 2
	}
	ats[int(r.next())%len(ats)] = bad
	pending, work, seq := r.eng.Pending(), r.eng.PendingWork(), r.eng.nextSeq
	defer func() {
		if recover() == nil {
			r.badErr = fmt.Sprintf("stream %v at %g was accepted", ats, r.eng.Now())
			return
		}
		r.bad++
		if r.eng.Pending() != pending || r.eng.PendingWork() != work || r.eng.nextSeq != seq {
			r.badErr = fmt.Sprintf("rejected stream %v at %g queued events", ats, r.eng.Now())
		}
	}()
	r.eng.PostEach(len(ats), func(k int) Time { return ats[k] }, func(int) {})
}

// fuzzSeeds are the byte programs FuzzPostEach and FuzzFronts start from.
var fuzzSeeds = [][]byte{
	{0, 5, 1, 2, 3, 4, 0, 2, 3, 3, 1, 6, 0, 2, 1, 4, 0, 3, 5, 0, 6, 1, 5},
	{1, 8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 0, 4, 0, 5, 1, 0, 3, 0, 0, 0, 7, 3, 1, 2, 3, 4, 0, 1},
	{0, 8, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 3, 0, 4, 0, 0, 0, 0, 6, 0, 0, 7, 2, 1, 1, 0, 1},
}

// fuzzLockstep runs a and b, two runs of one program, an op and a step at a
// time, and requires the same callbacks, clock, counters and program
// position after every op and every step. With stats it also requires the
// same live and cancelled counts from QueueStats.
func fuzzLockstep(t *testing.T, label string, a, b *fuzzRun, stats bool) {
	t.Helper()
	seen := 0 // log entries already compared
	check := func(step int) {
		t.Helper()
		if a.badErr != "" || b.badErr != "" {
			t.Fatalf("%s step %d: %s%s", label, step, a.badErr, b.badErr)
		}
		if math.Float64bits(a.eng.Now()) != math.Float64bits(b.eng.Now()) ||
			a.eng.Processed() != b.eng.Processed() || a.eng.Pending() != b.eng.Pending() ||
			a.eng.PendingWork() != b.eng.PendingWork() || a.pc != b.pc || a.bad != b.bad {
			t.Fatalf("%s step %d: a now=%g processed=%d pending=%d work=%d pc=%d, b now=%g processed=%d pending=%d work=%d pc=%d",
				label, step, a.eng.Now(), a.eng.Processed(), a.eng.Pending(), a.eng.PendingWork(), a.pc,
				b.eng.Now(), b.eng.Processed(), b.eng.Pending(), b.eng.PendingWork(), b.pc)
		}
		if stats {
			if qa, qb := a.eng.QueueStats(), b.eng.QueueStats(); qa.Live != qb.Live || qa.Cancelled != qb.Cancelled {
				t.Fatalf("%s step %d: QueueStats a=%+v b=%+v", label, step, qa, qb)
			}
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("%s step %d: %d callbacks in a, %d in b", label, step, len(a.log)/2, len(b.log)/2)
		}
		for k := seen; k < len(a.log); k++ {
			if a.log[k] != b.log[k] {
				t.Fatalf("%s step %d: callback log differs at %d: %v vs %v", label, step, k/2, a.log[k&^1:k&^1+2], b.log[k&^1:k&^1+2])
			}
		}
		seen = len(a.log)
	}
	for step := 0; a.pc < len(a.prog) || a.eng.PendingWork() > 0; step++ {
		a.exec()
		b.exec()
		check(step)
		if sa, sb := a.eng.Step(), b.eng.Step(); sa != sb {
			t.Fatalf("%s step %d: Step a=%v b=%v", label, step, sa, sb)
		}
		check(step)
	}
}

// FuzzPostEach is TestDifferentialPostEach on programs decoded from fuzz
// bytes: one run posts every stream with PostEach, the other with a Post
// loop, next to handled, posted and daemon events, cancels and
// reschedules, and the two must agree on every callback, the clock and the
// counters after every op and every step, on both fronts.
func FuzzPostEach(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		for _, impl := range benchEngines {
			a := &fuzzRun{eng: impl.mk(), each: true, prog: prog}
			b := &fuzzRun{eng: impl.mk(), prog: prog}
			fuzzLockstep(t, impl.name+": PostEach (a) vs Post loop (b)", a, b, false)
		}
	})
}

// FuzzFronts is TestDifferentialEngines on programs decoded from fuzz bytes:
// the reference engine and the fast one run the same program — streams,
// posts, handles, daemon ticks, cancels and reschedules — and must agree on
// every callback, the clock, the counters and the live and cancelled queue
// counts after every op and every step.
func FuzzFronts(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		a := &fuzzRun{eng: NewReferenceEngine(), each: true, prog: prog}
		b := &fuzzRun{eng: NewEngine(), each: true, prog: prog}
		fuzzLockstep(t, "reference (a) vs fast (b)", a, b, true)
	})
}
