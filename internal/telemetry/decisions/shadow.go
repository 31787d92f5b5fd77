package decisions

import (
	"math"
	"sort"
)

// ShadowRank is one law's row in the single-run counterfactual ranking.
type ShadowRank struct {
	Law  string `json:"law"`
	Rank int    `json:"rank"`
	// EstAttainment is the law's estimated SLA attainment had it driven the
	// fleet: realized outcomes, with each window's completions charged as
	// missed when the law's counterfactual fleet ran a capacity deficit
	// versus the actual fleet while the system was loaded.
	EstAttainment float64 `json:"est_attainment"`
	// EstGPUSeconds integrates the law's counterfactual committed fleet over
	// the decision windows (committed instances x window x GPUs/instance).
	EstGPUSeconds float64 `json:"est_gpu_seconds"`
	ChargedMisses int     `json:"charged_misses"`
	Completed     int     `json:"completed"`
	// Deficit counts windows where the law's fleet trailed the actual one.
	Deficit int `json:"deficit_windows"`
}

// ShadowRanking replays every shadow law's decision stream against the
// recorded outcome windows and ranks the laws from this single run the same
// way the multi-run scoreboard does: attainment desc, GPU-seconds asc, name.
//
// The replay reconstructs each law's counterfactual committed fleet from its
// verdicts alone (scale_out -> +1 capped at the fleet size, scale_in -> -1
// floored at MinActive, starting from InitialActive). A window's realized
// completions and SLA verdicts are taken as-is when the law's fleet matches
// or exceeds the actual committed fleet; when the law ran a deficit while
// there was queued work, the window's completions are charged as misses —
// the law would not have had the capacity that produced them. Each window's
// GPU-seconds span its Outcome.Horizon. The replay is RegretWindow's step
// folded over the whole ledger through a window that never evicts.
func (l *Ledger) ShadowRanking() []ShadowRank {
	if l.NumScale() == 0 {
		return nil
	}
	rw := NewRegretWindow(l.Meta)
	rw.window = math.Inf(1)
	l.scale.each(func(_ *chunk[ScaleRecord], r *ScaleRecord) { rw.Observe(r) })
	ranks := make([]ShadowRank, 0, len(rw.sums))
	for _, s := range rw.sums {
		att := 1.0
		if s.Completed > 0 {
			att = 1 - float64(s.ChargedMisses)/float64(s.Completed)
		}
		ranks = append(ranks, ShadowRank{
			Law:           s.Law,
			EstAttainment: att,
			EstGPUSeconds: s.GPUSeconds,
			ChargedMisses: s.ChargedMisses,
			Completed:     s.Completed,
			Deficit:       s.deficit,
		})
	}
	sort.SliceStable(ranks, func(i, j int) bool {
		if ranks[i].EstAttainment != ranks[j].EstAttainment {
			return ranks[i].EstAttainment > ranks[j].EstAttainment
		}
		if ranks[i].EstGPUSeconds != ranks[j].EstGPUSeconds {
			return ranks[i].EstGPUSeconds < ranks[j].EstGPUSeconds
		}
		return ranks[i].Law < ranks[j].Law
	})
	for i := range ranks {
		ranks[i].Rank = i + 1
	}
	return ranks
}
