package decisions

import "sort"

// regretWindow is the span, in sim-seconds, of the sliding window a live
// controller scores the shadow laws over.
const regretWindow = 15

// LawRegret is one law's sliding-window counterfactual score: the live
// signal the adaptive meta-policy switches sub-laws on. Lower is better —
// charged misses first, then GPU-seconds.
type LawRegret struct {
	Law           string  `json:"law"`
	ChargedMisses int     `json:"charged_misses"`
	Completed     int     `json:"completed"`
	GPUSeconds    float64 `json:"gpu_seconds"`
}

// RegretWindow incrementally maintains, per shadow law, the counterfactual
// accounting of the scale decisions: the committed-fleet replay and the
// miss-charging rule ShadowRanking describes. A live controller scores a
// sliding window of recent outcome-stamped decisions; ShadowRanking folds
// the whole ledger through a window that never evicts. The committed-fleet
// replay is cumulative from the run start (fleet state cannot be windowed);
// the charge and GPU-second sums cover only records newer than the window.
type RegretWindow struct {
	window    float64
	meta      ScaleMeta
	laws      []string
	committed []int // aligned with laws
	entries   []regretEntry
	sums      []lawSum // aligned with laws; nil until the first record
}

type regretEntry struct {
	t      float64
	perLaw []lawDelta // aligned with laws
}

type lawDelta struct {
	charged   int
	completed int
	deficit   int
	gpu       float64
}

// lawSum is one law's running score plus its deficit-window count, which
// only the post-hoc ranking reports.
type lawSum struct {
	LawRegret
	deficit int
}

// NewRegretWindow returns an empty 15-second window. meta supplies the fleet
// bounds the committed-fleet replay needs.
func NewRegretWindow(meta ScaleMeta) *RegretWindow {
	if meta.Fleet <= 0 {
		meta.Fleet = 1
	}
	if meta.MinActive <= 0 {
		meta.MinActive = 1
	}
	if meta.InitialActive <= 0 {
		meta.InitialActive = meta.MinActive
	}
	if meta.GPUsPerInstance <= 0 {
		meta.GPUsPerInstance = 1
	}
	return &RegretWindow{window: regretWindow, meta: meta}
}

// Observe folds one outcome-stamped scale record into the window. Call it
// exactly once per record, in decision order, after its Outcome is stamped.
// The first record fixes the law set (every record carries the full shadow
// panel, sorted by name). Records without an outcome still advance the
// committed-fleet replay. Nil-safe.
func (rw *RegretWindow) Observe(rec *ScaleRecord) {
	if rw == nil || rec == nil {
		return
	}
	if rw.sums == nil {
		rw.sums = make([]lawSum, len(rec.Shadows))
		for i, sh := range rec.Shadows {
			rw.laws = append(rw.laws, sh.Law)
			rw.committed = append(rw.committed, rw.meta.InitialActive)
			rw.sums[i].Law = sh.Law
		}
	}
	// Actual committed fleet after this step's applied action.
	actual := rec.Signals.Active + rec.Signals.Activating
	switch rec.Applied {
	case "activate":
		actual++
	case "deactivate":
		actual--
	}
	entry := regretEntry{t: rec.T, perLaw: make([]lawDelta, len(rw.laws))}
	for i, law := range rw.laws {
		// The law's verdict on this step's signals.
		verdict := ""
		for _, sh := range rec.Shadows {
			if sh.Law == law {
				verdict = sh.Decision
				break
			}
		}
		committed := rw.committed[i]
		switch verdict {
		case "scale_out":
			if committed < rw.meta.Fleet {
				committed++
			}
		case "scale_in":
			if committed > rw.meta.MinActive {
				committed--
			}
		}
		rw.committed[i] = committed
		d := &entry.perLaw[i]
		if o := rec.Outcome; o != nil {
			d.gpu = float64(committed) * o.Horizon * float64(rw.meta.GPUsPerInstance)
			if o.Completed > 0 {
				d.completed = o.Completed
				if committed < actual && rec.Signals.Backlog > 0 {
					// Capacity deficit under load: the realized completions
					// relied on instances this law would not have had.
					d.charged = o.Completed
					d.deficit = 1
				} else {
					d.charged = o.Completed - o.Met
				}
			}
		}
		rw.sums[i].add(d, 1)
	}
	rw.entries = append(rw.entries, entry)
	cut := rec.T - rw.window
	drop := 0
	for drop < len(rw.entries) && rw.entries[drop].t < cut {
		for i := range rw.laws {
			rw.sums[i].add(&rw.entries[drop].perLaw[i], -1)
		}
		drop++
	}
	if drop > 0 {
		rw.entries = append(rw.entries[:0], rw.entries[drop:]...)
	}
}

// add folds sign times d into the sum.
func (s *lawSum) add(d *lawDelta, sign int) {
	s.ChargedMisses += sign * d.charged
	s.Completed += sign * d.completed
	s.GPUSeconds += float64(sign) * d.gpu
	s.deficit += sign * d.deficit
}

// Regret returns the current per-law window sums, sorted by law name. The
// slice is the caller's to keep. Nil-safe.
func (rw *RegretWindow) Regret() []LawRegret {
	if rw == nil || len(rw.laws) == 0 {
		return nil
	}
	out := make([]LawRegret, 0, len(rw.laws))
	for i := range rw.sums {
		out = append(out, rw.sums[i].LawRegret)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Law < out[j].Law })
	return out
}
