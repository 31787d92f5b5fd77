package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential harness drives two engines through one and the same
// pre-generated script and asserts they are indistinguishable: identical
// callback sequences (timestamp bits and identity), identical
// Processed/Pending/PendingWork counters after every step, identical clocks.
// It pits the reference heap against the fast wheel, and a run that moves
// events with Reschedule against one that uses Cancel + Schedule.
//
// A script is a forest of event nodes generated up front from a seed, so
// both runs interpret exactly the same structure: roots are scheduled at
// absolute times; every executed node may schedule children (After /
// AfterDaemon), cancel an earlier node's event, and move an earlier node's
// event to a new time. Cancellations of pending events are the load-bearing
// part — the reference engine removes them eagerly, the fast engine
// tombstones them — and the interleaving with same-timestamp scheduling
// exercises the FIFO tie-break. Move targets are pending, cancelled or
// already-run events, and zero-delay moves collide with events queued for
// the same instant.

type scriptNode struct {
	rootAt    Time  // absolute schedule time (roots only)
	delay     Time  // After() delay when scheduled as a child
	daemon    bool  // scheduled via the daemon variants
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
	// viaCancel makes moves Cancel the event and Schedule a fresh one
	// instead of calling Reschedule.
	viaCancel bool
	events    []*Event
	pending   []bool // the node's event is armed and has not run since
	acted     []bool // the node ran its children/cancel/move actions
	moved     [4]int
	// log records (node id, timestamp bits) per executed callback.
	logIDs []int
	logAts []uint64

	// post queues every non-daemon node that no other node cancels or moves
	// with Post instead of Schedule: those events need no handle.
	post     bool
	targeted []bool // the node is some node's cancel or move target
	posted   int    // events queued with Post
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
		return r.eng.ScheduleDaemon(at, func() { r.fire(i) })
	}
	if r.post && !r.targeted[i] {
		r.posted++
		r.eng.Post(at, func() { r.fire(i) })
		return nil
	}
	return r.eng.Schedule(at, func() { r.fire(i) })
}

// newPostRun is newScriptRun with post set: untargeted non-daemon nodes are
// posted, the rest scheduled.
func newPostRun(eng *Engine, nodes []scriptNode) *scriptRun {
	targeted := make([]bool, len(nodes))
	for _, nd := range nodes {
		if nd.cancels >= 0 {
			targeted[nd.cancels] = true
		}
		if nd.moves >= 0 {
			targeted[nd.moves] = true
		}
	}
	r := &scriptRun{
		eng: eng, nodes: nodes, post: true, targeted: targeted,
		events:  make([]*Event, len(nodes)),
		pending: make([]bool, len(nodes)),
		acted:   make([]bool, len(nodes)),
	}
	r.scheduleRoots()
	return r
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
	for _, c := range nd.children {
		r.events[c] = r.schedule(c, r.eng.Now()+r.nodes[c].delay)
	}
	if nd.cancels >= 0 {
		r.eng.Cancel(r.events[nd.cancels]) // nil-safe: target may be unscheduled
	}
	if nd.moves >= 0 && r.events[nd.moves] != nil {
		r.move(nd.moves, r.eng.Now()+nd.moveDelay)
	}
}

// move re-arms node t's event at time at.
func (r *scriptRun) move(t int, at Time) {
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
	if !r.viaCancel {
		r.pending[t] = true
		r.eng.Reschedule(ev, at)
		return
	}
	r.eng.Cancel(ev)
	r.events[t] = r.schedule(t, at)
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

// TestDifferentialReschedule proves Reschedule is Cancel + Schedule on each
// front: the same script, with every move made either way, must give the
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

// TestDifferentialPost proves Post is Schedule without the handle on each
// front: the same script, with every untargeted non-daemon node posted in
// one run and scheduled in the other, must give the same callbacks,
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
