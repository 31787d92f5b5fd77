package critpath

// ShareTracker maintains a sliding window over the most recently finalized
// requests' TTFT critical-path attribution and answers the control-plane
// question "which stage dominates recent TTFT, and by how much". It is the
// live counterpart of the post-hoc stage report: the autoscaler folds it
// into ScaleSignals. The online collective policy does not read it.
//
// Determinism: the tracker consumes only the analyzer's finalize stream
// (itself deterministic under the event loop) and resolves ties in canonical
// stage order, so same-seed runs see identical dominants.
type ShareTracker struct {
	ring  [shareWindow][]stageMass // per-request TTFT masses, stage-sorted
	next  int
	count int
	sums  map[string]float64
	total float64
	order []string // scratch: a stage map's keys in canonical order

	// The last Dominant answer, valid until the next Observe.
	dom      string
	domShare float64
	domValid bool
}

type stageMass struct {
	stage string
	sec   float64
}

// shareWindow is the number of most recently finalized requests a
// ShareTracker holds.
const shareWindow = 32

// NewShareTracker returns a tracker over the last shareWindow finalized
// requests.
func NewShareTracker() *ShareTracker {
	return &ShareTracker{sums: make(map[string]float64)}
}

// Observe folds one finalized request into the window, evicting the oldest
// entry once the window is full. Nil-safe. Wire it via Analyzer.OnFinalize.
func (t *ShareTracker) Observe(b Breakdown) {
	if t == nil {
		return
	}
	entry := t.ring[t.next]
	for _, m := range entry {
		t.sums[m.stage] -= m.sec
		t.total -= m.sec
	}
	// The evicted entry's storage takes the new one.
	entry = entry[:0]
	t.order = sortStagesInto(t.order, b.TTFTStages)
	for _, s := range t.order {
		sec := b.TTFTStages[s]
		entry = append(entry, stageMass{stage: s, sec: sec})
		t.sums[s] += sec
		t.total += sec
	}
	t.ring[t.next] = entry
	t.domValid = false
	t.next = (t.next + 1) % shareWindow
	if t.count < shareWindow {
		t.count++
	}
}

// Len reports how many requests the window currently holds. Nil-safe.
func (t *ShareTracker) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Share returns the given stage's fraction of windowed TTFT mass (0 when the
// window is empty). Nil-safe.
func (t *ShareTracker) Share(stage string) float64 {
	if t == nil || t.total <= 0 {
		return 0
	}
	return t.sums[stage] / t.total
}

// Dominant returns the stage carrying the largest share of windowed TTFT
// mass and that share; ("", 0) while the window is empty. Ties break in
// canonical stage order. The answer is computed once per Observe and reused
// until the next. Nil-safe.
func (t *ShareTracker) Dominant() (string, float64) {
	if t == nil {
		return "", 0
	}
	if !t.domValid {
		t.dom, t.domShare = t.dominant()
		t.domValid = true
	}
	return t.dom, t.domShare
}

// dominant computes Dominant's answer from the window.
func (t *ShareTracker) dominant() (string, float64) {
	if t.total <= 0 {
		return "", 0
	}
	best, bestV := "", -1.0
	t.order = sortStagesInto(t.order, t.sums)
	for _, s := range t.order {
		if v := t.sums[s]; v > bestV {
			best, bestV = s, v
		}
	}
	if bestV <= 0 {
		return "", 0
	}
	return best, bestV / t.total
}
