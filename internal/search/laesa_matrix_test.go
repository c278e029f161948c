package search

import (
	"math/rand"
	"testing"

	"ced/internal/metric"
)

func fullMatrix(corpus [][]rune, m metric.Metric) [][]float64 {
	n := len(corpus)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.Distance(corpus[i], corpus[j])
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d
}

// TestLAESAFromMatrixMatchesRegularLAESA: the matrix path selects the
// same pivots and answers every query as the metric path does. Its corpus
// holds an empty string, which the matrix path takes like any other.
func TestLAESAFromMatrixMatchesRegularLAESA(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	corpus := randomCorpus(rng, 90, 8, alpha)
	queries := randomCorpus(rng, 30, 8, alpha)
	corpus = append(corpus, []rune{})
	m := metric.Levenshtein()
	matrix := fullMatrix(corpus, m)

	regular := NewLAESA(corpus, m, 12, MaxSum, 5)
	fromMatrix := NewLAESAFromMatrix(corpus, m, matrix, 12, MaxSum, 5)
	if fromMatrix.PreprocessComputations != 0 {
		t.Errorf("matrix-backed preprocess computations = %d, want 0", fromMatrix.PreprocessComputations)
	}
	if fromMatrix.NumPivots() != regular.NumPivots() {
		t.Fatalf("pivot counts differ: %d vs %d", fromMatrix.NumPivots(), regular.NumPivots())
	}
	for i := range regular.pivots {
		if regular.pivots[i] != fromMatrix.pivots[i] {
			t.Fatalf("pivot %d differs: %d vs %d (same seed and strategy)", i, regular.pivots[i], fromMatrix.pivots[i])
		}
	}
	for _, q := range queries {
		a := regular.Search(q)
		b := fromMatrix.Search(q)
		if a.Index != b.Index || a.Distance != b.Distance || a.Computations != b.Computations {
			t.Fatalf("results differ for %q: %+v vs %+v", string(q), a, b)
		}
	}
}

func TestLAESAFromMatrixCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	corpus := randomCorpus(rng, 70, 8, alpha)
	queries := randomCorpus(rng, 25, 8, alpha)
	m := metric.ContextualHeuristic()
	matrix := fullMatrix(corpus, m)
	lin := NewLinear(corpus, m)
	s := NewLAESAFromMatrix(corpus, m, matrix, 8, MaxMin, 2)
	checkAgainstLinear(t, s, lin, queries)
}
