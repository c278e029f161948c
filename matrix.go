package ced

import (
	"ced/internal/bulk"
	"ced/internal/metric"
)

// DistanceMatrix computes the full symmetric distance matrix over data in
// parallel: out[i][j] = m.Distance(data[i], data[j]), with zeros on the
// diagonal. It evaluates the metric n·(n−1)/2 times (each unordered pair
// once, mirrored into both triangles), striped over the worker pool with
// no locking; workers <= 0 uses all CPUs.
//
// Each striped worker evaluates through a private metric session (a
// reusable distance workspace for the contextual kernels), so steady-state
// evaluations allocate nothing and never contend on a shared pool. The
// values are bit-identical for any worker count.
//
// This is the bulk primitive behind the paper's distance histograms
// (Figures 1–2) and intrinsic-dimensionality estimates (Table 1, computed
// as μ²/2σ² over exactly these pairwise distances); BatchDistance and the
// cedserve worker pool reuse its striding pattern.
func DistanceMatrix(data []string, m Metric, workers int) [][]float64 {
	return bulk.New(internalMetric(m)).Matrix(toRunes(data), workers)
}

// ContextualHybrid returns a contextual metric that computes the exact dC
// (Algorithm 1, O(|x|·|y|·(|x|+|y|)) time) for pairs with |x|+|y| at most
// threshold symbols and the O(|x|·|y|) heuristic dC,h of §4.1 for longer
// pairs (threshold <= 0 means 64). See the ablation benches in
// bench_test.go for the cost/accuracy trade-off it navigates.
func ContextualHybrid(threshold int) Metric {
	return stringMetric{m: metric.ContextualHybrid(threshold)}
}

// ContextualWindowed returns the windowed contextual distance: Algorithm 1
// truncated to edit lengths at most dE + window. window = 0 is exactly the
// paper's heuristic dC,h; growing the window converges monotonically to
// the exact dC. It runs exact dC's banded kernel with the band also capped
// at dE + window, so it never costs more than Contextual — a practical
// answer to the paper's §5 remark that the exact algorithm's cubic
// complexity "is clearly too high".
func ContextualWindowed(window int) Metric {
	return stringMetric{m: metric.ContextualWindowed(window)}
}
