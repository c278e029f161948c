package search

import "ced/internal/metric"

// NewLAESAFromMatrix builds a LAESA index whose preprocessing distances are
// taken from a precomputed full corpus×corpus distance matrix
// (matrix[i][j] = d(corpus[i], corpus[j])) instead of being recomputed:
// pivot p's row is matrix[p].
//
// This exists for the pivot-count sweeps of the paper's Figures 3 and 4:
// the sweep builds LAESA indexes for a dozen pivot counts over the same
// corpus and metric, and sharing one matrix makes the preprocessing cost of
// the whole sweep one matrix instead of one per pivot count.
// PreprocessComputations is reported as 0, since no metric evaluations are
// spent; queries still evaluate m for real.
func NewLAESAFromMatrix(corpus [][]rune, m metric.Metric, matrix [][]float64, numPivots int, strategy PivotStrategy, seed int64) *LAESA {
	pivots, rows := selectPivots(len(corpus), numPivots, strategy, seed, func(p int) []float64 { return matrix[p] })
	return newLAESA(corpus, m, pivots, rows, 0)
}
