package search

import (
	"context"
	"math"
	"sync"
	"testing"

	"ced/internal/dataset"
	"ced/internal/metric"
)

// Query-path benchmarks (BENCH_query.json): k-NN and radius queries under
// the exact contextual distance over the two corpus families of the paper's
// evaluation — short Spanish-like dictionary words and long synthetic digit
// contour strings — plus the dE dictionary workload on the BK-tree. The
// queries are corpus words perturbed by a few edits, so every query has
// close neighbours and the bulk of the corpus is far away: the regime where
// the bounded-evaluation ladder decides most candidates without touching
// the exact dynamic program. Radii are sized to the perturbation (a 2-edit
// query sits within ~2·e/(m+n) of its source word), so radius queries
// return a handful of hits, not the whole corpus.
//
// Index construction is cached per process: `-count=N` remeasures queries,
// not builds (build benchmarks live in build_bench_test.go).

type queryFixture struct {
	corpus  [][]rune
	queries [][]rune
}

var (
	spanishOnce sync.Once
	spanishFix  queryFixture

	contourOnce sync.Once
	contourFix  queryFixture

	laesaSpanishOnce sync.Once
	laesaSpanish     *LAESA

	vpSpanishOnce sync.Once
	vpSpanish     *VPTree

	laesaContourOnce sync.Once
	laesaContour     *LAESA

	vpContourOnce sync.Once
	vpContour     *VPTree

	bkSpanishOnce sync.Once
	bkSpanish     *BKTree

	linSpanishOnce sync.Once
	linSpanish     *Linear

	linContourOnce sync.Once
	linContour     *Linear
)

func spanishFixture() queryFixture {
	spanishOnce.Do(func() {
		dict := dataset.Spanish(2000, 16)
		spanishFix = queryFixture{
			corpus:  dict.Runes(),
			queries: dataset.PerturbQueries(dict, 64, 2, 17).Runes(),
		}
	})
	return spanishFix
}

func contourFixture() queryFixture {
	contourOnce.Do(func() {
		cfg := dataset.DigitsConfig{Count: 160, Grid: 32}
		train := dataset.Digits(cfg, 7)
		contourFix = queryFixture{
			corpus:  train.Runes(),
			queries: dataset.PerturbQueries(train, 24, 4, 8).Runes(),
		}
	})
	return contourFix
}

func spanishLAESA() *LAESA {
	laesaSpanishOnce.Do(func() {
		laesaSpanish = NewLAESA(spanishFixture().corpus, metric.Contextual(), 32, MaxSum, 19)
	})
	return laesaSpanish
}

func spanishVPTree() *VPTree {
	vpSpanishOnce.Do(func() {
		vpSpanish = NewVPTree(spanishFixture().corpus, metric.Contextual(), 20)
	})
	return vpSpanish
}

func contourLAESA() *LAESA {
	laesaContourOnce.Do(func() {
		laesaContour = NewLAESA(contourFixture().corpus, metric.Contextual(), 16, MaxSum, 21)
	})
	return laesaContour
}

func contourVPTree() *VPTree {
	vpContourOnce.Do(func() {
		vpContour = NewVPTree(contourFixture().corpus, metric.Contextual(), 22)
	})
	return vpContour
}

func spanishBKTree() *BKTree {
	bkSpanishOnce.Do(func() {
		bkSpanish = NewBKTree(spanishFixture().corpus, metric.Levenshtein())
	})
	return bkSpanish
}

func spanishLinear() *Linear {
	linSpanishOnce.Do(func() {
		linSpanish = NewLinear(spanishFixture().corpus, metric.Contextual())
	})
	return linSpanish
}

func contourLinear() *Linear {
	linContourOnce.Do(func() {
		linContour = NewLinear(contourFixture().corpus, metric.Contextual())
	})
	return linContour
}

// spanishRadius comfortably covers a 2-edit perturbation of a dictionary
// word (dC of 2 edits on ~8-symbol words is ~0.2) while excluding the bulk
// of the corpus.
const spanishRadius = 0.3

// contourRadius covers a 4-edit perturbation of a ~100-symbol contour
// string (dC ~ 0.04) with headroom.
const contourRadius = 0.08

func benchKNN(b *testing.B, s Index, queries [][]rune, k int) {
	benchQuery(b, s, queries, KNN(k, math.Inf(1)))
}

func benchRadius(b *testing.B, s Index, queries [][]rune, r float64) {
	benchQuery(b, s, queries, Within(r))
}

func benchQuery(b *testing.B, s Index, queries [][]rune, req Request) {
	b.Helper()
	comps, hits := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, _ := s.Query(context.Background(), queries[i%len(queries)], req)
		comps += ans.Computations
		hits += len(ans.Hits)
	}
	b.ReportMetric(float64(comps)/float64(b.N), "comps/query")
	if req.IsRadius() {
		b.ReportMetric(float64(hits)/float64(b.N), "hits/query")
	}
}

func BenchmarkQueryKNNSpanishLAESA(b *testing.B) {
	benchKNN(b, spanishLAESA(), spanishFixture().queries, 3)
}

func BenchmarkQueryKNNSpanishVPTree(b *testing.B) {
	benchKNN(b, spanishVPTree(), spanishFixture().queries, 3)
}

func BenchmarkQueryRadiusSpanishLAESA(b *testing.B) {
	benchRadius(b, spanishLAESA(), spanishFixture().queries, spanishRadius)
}

func BenchmarkQueryRadiusSpanishVPTree(b *testing.B) {
	benchRadius(b, spanishVPTree(), spanishFixture().queries, spanishRadius)
}

func BenchmarkQueryKNNContoursLAESA(b *testing.B) {
	benchKNN(b, contourLAESA(), contourFixture().queries, 3)
}

func BenchmarkQueryKNNContoursVPTree(b *testing.B) {
	benchKNN(b, contourVPTree(), contourFixture().queries, 3)
}

func BenchmarkQueryRadiusContoursLAESA(b *testing.B) {
	benchRadius(b, contourLAESA(), contourFixture().queries, contourRadius)
}

func BenchmarkQueryRadiusContoursVPTree(b *testing.B) {
	benchRadius(b, contourVPTree(), contourFixture().queries, contourRadius)
}

func BenchmarkQueryRadiusSpanishBKTreeDE(b *testing.B) {
	benchRadius(b, spanishBKTree(), spanishFixture().queries, 2)
}

func BenchmarkQueryKNNSpanishBKTreeDE(b *testing.B) {
	benchKNN(b, spanishBKTree(), spanishFixture().queries, 3)
}

// The exhaustive scans evaluate every corpus element per query — the purest
// measure of what a miss costs, with no index pruning in front of the
// kernel (and the cost model of the serving layer's "linear" algorithm).

func BenchmarkQueryKNNSpanishLinear(b *testing.B) {
	benchKNN(b, spanishLinear(), spanishFixture().queries, 3)
}

func BenchmarkQueryRadiusSpanishLinear(b *testing.B) {
	benchRadius(b, spanishLinear(), spanishFixture().queries, spanishRadius)
}

func BenchmarkQueryKNNContoursLinear(b *testing.B) {
	benchKNN(b, contourLinear(), contourFixture().queries, 3)
}

func BenchmarkQueryRadiusContoursLinear(b *testing.B) {
	benchRadius(b, contourLinear(), contourFixture().queries, contourRadius)
}
