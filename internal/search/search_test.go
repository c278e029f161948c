package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ced/internal/metric"
)

func randomCorpus(rng *rand.Rand, n, maxLen int, alphabet []rune) [][]rune {
	out := make([][]rune, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		s := make([]rune, l)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = s
	}
	return out
}

var alpha = []rune("abcd")

// checkAgainstLinear verifies that a searcher returns a neighbour at the
// same distance as the exhaustive scan (the index may differ under ties).
func checkAgainstLinear(t *testing.T, s Index, lin *Linear, queries [][]rune) {
	t.Helper()
	for _, q := range queries {
		want := lin.Search(q)
		got := s.Search(q)
		if got.Index < 0 {
			t.Fatalf("%s returned no neighbour", s.Name())
		}
		if math.Abs(got.Distance-want.Distance) > 1e-12 {
			t.Fatalf("%s(%q): distance %v, exhaustive %v", s.Name(), string(q), got.Distance, want.Distance)
		}
		if got.Computations <= 0 || got.Computations > lin.Size() {
			t.Fatalf("%s computations = %d out of (0,%d]", s.Name(), got.Computations, lin.Size())
		}
	}
}

func TestLinearBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	corpus := randomCorpus(rng, 50, 8, alpha)
	lin := NewLinear(corpus, metric.Levenshtein())
	if lin.Name() != "linear" || lin.Size() != 50 {
		t.Error("linear metadata wrong")
	}
	res := lin.Search(corpus[7])
	if res.Distance != 0 {
		t.Errorf("self-query distance = %v, want 0", res.Distance)
	}
	if res.Computations != 50 {
		t.Errorf("linear computations = %d, want 50", res.Computations)
	}
	empty := NewLinear(nil, metric.Levenshtein())
	if r := empty.Search([]rune("a")); r.Index != -1 {
		t.Error("empty corpus should return index -1")
	}
}

func TestLinearKNearest(t *testing.T) {
	corpus := [][]rune{[]rune("aaaa"), []rune("aaab"), []rune("aabb"), []rune("abbb"), []rune("bbbb")}
	lin := NewLinear(corpus, metric.Levenshtein())
	top := lin.KNearest([]rune("aaaa"), 3)
	if len(top) != 3 {
		t.Fatalf("got %d results, want 3", len(top))
	}
	wantDist := []float64{0, 1, 2}
	for i, r := range top {
		if r.Distance != wantDist[i] {
			t.Errorf("top[%d] distance = %v, want %v", i, r.Distance, wantDist[i])
		}
	}
	if top[0].Index != 0 {
		t.Errorf("nearest index = %d, want 0", top[0].Index)
	}
	if got := lin.KNearest([]rune("aaaa"), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := lin.KNearest([]rune("aaaa"), 99); len(got) != len(corpus) {
		t.Error("k>n should clamp to n")
	}
	// Sorted ascending.
	all := lin.KNearest([]rune("abab"), 5)
	for i := 1; i < len(all); i++ {
		if all[i].Distance < all[i-1].Distance {
			t.Error("KNearest not sorted")
		}
	}
}

func TestLAESAFindsNearestUnderMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	corpus := randomCorpus(rng, 120, 10, alpha)
	queries := randomCorpus(rng, 40, 10, alpha)
	metrics := []metric.Metric{
		metric.Levenshtein(),
		metric.ContextualHeuristic(),
		metric.YujianBo(),
	}
	for _, m := range metrics {
		lin := NewLinear(corpus, m)
		for _, pivots := range []int{1, 5, 20, 120} {
			s := NewLAESA(corpus, m, pivots, MaxSum, 7)
			checkAgainstLinear(t, s, lin, queries)
		}
	}
}

func TestLAESAPivotStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpus := randomCorpus(rng, 100, 8, alpha)
	queries := randomCorpus(rng, 30, 8, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	for _, strat := range []PivotStrategy{MaxSum, MaxMin, Random} {
		s := NewLAESA(corpus, m, 10, strat, 3)
		if s.NumPivots() != 10 {
			t.Fatalf("strategy %v selected %d pivots, want 10", strat, s.NumPivots())
		}
		checkAgainstLinear(t, s, lin, queries)
	}
}

func TestLAESAPreprocessCost(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	corpus := randomCorpus(rng, 60, 6, alpha)
	s := NewLAESA(corpus, metric.Levenshtein(), 5, MaxSum, 1)
	// Each of the 5 pivots computes n-1 distances.
	if want := 5 * 59; s.PreprocessComputations != want {
		t.Errorf("preprocess computations = %d, want %d", s.PreprocessComputations, want)
	}
}

func TestLAESAEdgeCases(t *testing.T) {
	m := metric.Levenshtein()
	empty := NewLAESA(nil, m, 3, MaxSum, 1)
	if r := empty.Search([]rune("x")); r.Index != -1 {
		t.Error("empty LAESA should return -1")
	}
	single := NewLAESA([][]rune{[]rune("abc")}, m, 3, MaxSum, 1)
	if r := single.Search([]rune("abd")); r.Index != 0 || r.Distance != 1 {
		t.Errorf("single-element LAESA got %+v", r)
	}
	// More pivots than elements: clamps.
	tiny := NewLAESA(randomCorpus(rand.New(rand.NewSource(2)), 4, 5, alpha), m, 100, MaxSum, 1)
	if tiny.NumPivots() != 4 {
		t.Errorf("pivots = %d, want 4", tiny.NumPivots())
	}
	// Zero pivots: degenerates to scanning but stays correct.
	zero := NewLAESA(randomCorpus(rand.New(rand.NewSource(3)), 10, 5, alpha), m, 0, MaxSum, 1)
	if r := zero.Search([]rune("aa")); r.Index < 0 {
		t.Error("zero-pivot LAESA failed to search")
	}
}

func TestLAESAFewerComputationsThanExhaustive(t *testing.T) {
	// With a reasonable pivot count and a true metric, the average number of
	// distance computations must beat exhaustive search — the paper's core
	// efficiency claim for metrics with spread-out histograms.
	rng := rand.New(rand.NewSource(44))
	corpus := randomCorpus(rng, 300, 12, alpha)
	queries := randomCorpus(rng, 50, 12, alpha)
	s := NewLAESA(corpus, metric.Levenshtein(), 20, MaxSum, 5)
	total := 0
	for _, q := range queries {
		total += s.Search(q).Computations
	}
	avg := float64(total) / float64(len(queries))
	if avg >= float64(len(corpus)) {
		t.Errorf("LAESA avg computations %.1f not better than exhaustive %d", avg, len(corpus))
	}
}

func TestAESAFindsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	corpus := randomCorpus(rng, 80, 8, alpha)
	queries := randomCorpus(rng, 30, 8, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	s := NewAESA(corpus, m)
	if s.Name() != "aesa" || s.Size() != 80 {
		t.Error("AESA metadata wrong")
	}
	if want := 80 * 79 / 2; s.PreprocessComputations != want {
		t.Errorf("AESA preprocess = %d, want %d", s.PreprocessComputations, want)
	}
	checkAgainstLinear(t, s, lin, queries)
	if r := NewAESA(nil, m).Search([]rune("a")); r.Index != -1 {
		t.Error("empty AESA should return -1")
	}
}

func TestAESAUsesFewerComputationsThanLAESA(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	corpus := randomCorpus(rng, 200, 10, alpha)
	queries := randomCorpus(rng, 40, 10, alpha)
	m := metric.Levenshtein()
	aesa := NewAESA(corpus, m)
	laesa := NewLAESA(corpus, m, 10, MaxSum, 5)
	at, lt := 0, 0
	for _, q := range queries {
		at += aesa.Search(q).Computations
		lt += laesa.Search(q).Computations
	}
	// AESA's full matrix can only improve per-query pruning on average.
	if at > lt*2 {
		t.Errorf("AESA %d vs LAESA %d computations: AESA unexpectedly much worse", at, lt)
	}
}

func TestVPTreeFindsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corpus := randomCorpus(rng, 150, 10, alpha)
	queries := randomCorpus(rng, 40, 10, alpha)
	for _, m := range []metric.Metric{metric.Levenshtein(), metric.ContextualHeuristic()} {
		lin := NewLinear(corpus, m)
		s := NewVPTree(corpus, m, 11)
		if s.Name() != "vptree" || s.Size() != 150 {
			t.Error("VPTree metadata wrong")
		}
		if s.PreprocessComputations <= 0 {
			t.Error("VPTree build should compute distances")
		}
		checkAgainstLinear(t, s, lin, queries)
	}
	if r := NewVPTree(nil, metric.Levenshtein(), 1).Search([]rune("a")); r.Index != -1 {
		t.Error("empty VPTree should return -1")
	}
}

func TestBKTreeFindsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	corpus := randomCorpus(rng, 150, 10, alpha)
	queries := randomCorpus(rng, 40, 10, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	s := NewBKTree(corpus, m)
	if s.Name() != "bktree" || s.Size() != 150 {
		t.Error("BKTree metadata wrong")
	}
	checkAgainstLinear(t, s, lin, queries)
	if r := NewBKTree(nil, m).Search([]rune("a")); r.Index != -1 {
		t.Error("empty BKTree should return -1")
	}
}

func TestBKTreeRadius(t *testing.T) {
	corpus := [][]rune{[]rune("book"), []rune("books"), []rune("cake"), []rune("boo"), []rune("cape")}
	tr := NewBKTree(corpus, metric.Levenshtein())
	hits, comps := radius(tr, []rune("book"), 1)
	if comps <= 0 {
		t.Error("radius query should compute distances")
	}
	found := map[string]bool{}
	for _, h := range hits {
		found[string(corpus[h.Index])] = true
	}
	for _, want := range []string{"book", "books", "boo"} {
		if !found[want] {
			t.Errorf("radius query missed %q (got %v)", want, found)
		}
	}
	if found["cake"] || found["cape"] {
		t.Errorf("radius query returned far elements: %v", found)
	}
}

func TestPivotStrategyString(t *testing.T) {
	if MaxSum.String() != "max-sum" || MaxMin.String() != "max-min" || Random.String() != "random" {
		t.Error("strategy names wrong")
	}
	if PivotStrategy(9).String() != "PivotStrategy(9)" {
		t.Error("unknown strategy name wrong")
	}
}

func TestSelectPivotsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	corpus := randomCorpus(rng, 60, 8, alpha)
	for _, strat := range []PivotStrategy{MaxSum, MaxMin, Random} {
		pivots, rows := selectPivots(len(corpus), 12, strat, 9, metricRows(corpus, metric.Levenshtein(), 1))
		if len(pivots) != 12 || len(rows) != 12 {
			t.Fatalf("strategy %v: %d pivots, %d rows", strat, len(pivots), len(rows))
		}
		seen := map[int]bool{}
		for _, p := range pivots {
			if seen[p] {
				t.Fatalf("strategy %v: duplicate pivot %d", strat, p)
			}
			seen[p] = true
		}
	}
}

func TestLAESADeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	corpus := randomCorpus(rng, 80, 8, alpha)
	a := NewLAESA(corpus, metric.Levenshtein(), 8, MaxSum, 123)
	b := NewLAESA(corpus, metric.Levenshtein(), 8, MaxSum, 123)
	for i := range a.pivots {
		if a.pivots[i] != b.pivots[i] {
			t.Fatal("same seed should choose the same pivots")
		}
	}
}

// radius runs a radius query, returning its hits and computation count.
func radius(s Index, q []rune, r float64) ([]Result, int) {
	ans, err := s.Query(context.Background(), q, Within(r))
	if err != nil {
		panic(err)
	}
	return ans.Hits, ans.Computations
}
