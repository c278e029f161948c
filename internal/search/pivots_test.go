package search

import (
	"math/rand"
	"testing"

	"ced/internal/metric"
)

func TestPivotSetsNestAcrossCounts(t *testing.T) {
	// The greedy selection is deterministic per seed, so the first k
	// pivots are identical regardless of how many are requested — the
	// property the Figure 3/4 sweeps rely on when sharing one distance
	// matrix across pivot counts.
	rng := rand.New(rand.NewSource(160))
	corpus := randomCorpus(rng, 120, 8, alpha)
	m := metric.Levenshtein()
	for _, strat := range []PivotStrategy{MaxSum, MaxMin} {
		small, _ := selectPivots(len(corpus), 5, strat, 77, metricRows(corpus, m, 1))
		large, _ := selectPivots(len(corpus), 25, strat, 77, metricRows(corpus, m, 1))
		for i := range small {
			if small[i] != large[i] {
				t.Fatalf("strategy %v: pivot %d differs (%d vs %d); sets not nested",
					strat, i, small[i], large[i])
			}
		}
	}
}

func TestSelectPivotsZeroAndEmpty(t *testing.T) {
	corpus := randomCorpus(rand.New(rand.NewSource(161)), 10, 5, alpha)
	p, rows := selectPivots(len(corpus), 0, MaxSum, 1, metricRows(corpus, metric.Levenshtein(), 1))
	if p != nil || rows != nil {
		t.Error("zero pivots should select nothing")
	}
	p, _ = selectPivots(0, 3, MaxSum, 1, metricRows(nil, metric.Levenshtein(), 1))
	if len(p) != 0 {
		t.Error("empty corpus should select nothing")
	}
}
