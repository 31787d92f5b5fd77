package critpath

// RefAnalyzer is the reference analyzer, for the external tests (which may
// import the serving packages that import this one).
type RefAnalyzer = refAnalyzer

// NewRefAnalyzer returns an empty reference analyzer.
func NewRefAnalyzer() *RefAnalyzer { return newRefAnalyzer() }

// DiffBreakdowns describes the first difference between two breakdown
// lists, or returns "" when they are bit-identical.
func DiffBreakdowns(got, want []Breakdown) string { return diffBreakdowns(got, want) }
